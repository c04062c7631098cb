package opt

import (
	"fmt"

	"barriermimd/internal/ir"
)

// Stats reports what the optimizer removed.
type Stats struct {
	// Input and Output are tuple counts before and after.
	Input, Output int
	// Folded counts operations replaced by compile-time constants.
	Folded int
	// CSE counts operations replaced by an earlier identical operation.
	CSE int
	// PropagatedLoads counts loads replaced by a known variable value.
	PropagatedLoads int
	// DeadStores counts stores overwritten later in the block.
	DeadStores int
	// DeadOps counts otherwise-unreferenced tuples removed by DCE.
	DeadOps int
	// Algebraic counts operations removed by identities (x+0, x*1, ...).
	Algebraic int
}

func (s Stats) String() string {
	return fmt.Sprintf("opt: %d→%d tuples (folded %d, cse %d, propagated %d, dead stores %d, dead ops %d, algebraic %d)",
		s.Input, s.Output, s.Folded, s.CSE, s.PropagatedLoads, s.DeadStores, s.DeadOps, s.Algebraic)
}

// value is the abstract value a tuple (or operand) evaluates to during
// value numbering: either a compile-time constant or a reference to a
// surviving tuple (by input position).
type value struct {
	c     int64
	ref   int
	isRef bool
}

func constVal(c int64) value { return value{c: c} }
func refVal(pos int) value   { return value{ref: pos, isRef: true} }

// less orders operands for commutative canonicalization: constants
// before refs, then by ref position or constant value.
func less(x, y value) bool {
	if x.isRef != y.isRef {
		return !x.isRef // constants order before refs
	}
	if x.isRef {
		return x.ref < y.ref
	}
	return x.c < y.c
}

// Options selects optional passes beyond the paper's set.
type Options struct {
	// Algebraic enables identity simplifications (x+0, x*1, x-x, ...).
	// The paper's optimizer does not include these (section 2.2 lists
	// common subexpression elimination, constant folding and value
	// propagation, and dead code elimination), so they are off by
	// default: with tiny variable pools the x-x/x%x rules seed constants
	// that can fold entire benchmarks away.
	Algebraic bool
}

// Optimize applies the paper's local optimizations: common subexpression
// elimination, constant folding, value propagation, and dead code
// elimination. The input block is not modified. The result's IDs preserve
// the input positions of surviving tuples (matching the paper's numbering
// with gaps).
func Optimize(b *ir.Block) (*ir.Block, Stats, error) {
	return OptimizeOpts(b, Options{})
}

// OptimizeOpts is Optimize with optional extra passes.
//
// The pass runs over dense tables sized from the input: variables are
// interned into ids once per call (ir.VarIDs), per-variable state is an
// array indexed by id, and value numbering probes one open-addressing
// table of input positions. It allocates a fixed handful of arrays per
// call.
func OptimizeOpts(b *ir.Block, opts Options) (*ir.Block, Stats, error) {
	if err := b.Validate(); err != nil {
		return nil, Stats{}, err
	}
	ts := b.Tuples
	n := len(ts)
	st := Stats{Input: n}

	scratch := make([]int32, 2*n+tableSize(n))
	ids := scratch[:n]         // variable id of each Load and Store
	newPos := scratch[n : 2*n] // output position of each surviving tuple
	table := scratch[2*n:]     // value numbering: input position + 1
	vars := make([]varState, ir.VarIDs(ts, ids))
	vals := make([]value, n) // value of each input tuple
	flags := make([]bool, 2*n)
	isOp := flags[:n] // tuple is a surviving op candidate
	live := flags[n:]

	resolve := func(t *ir.Tuple, k int) value {
		if t.IsImm[k] {
			return constVal(t.Imm[k])
		}
		return vals[t.Args[k]]
	}

	for i := range ts {
		t := &ts[i]
		switch {
		case t.Op == ir.Load:
			v := &vars[ids[i]]
			if v.known {
				vals[i] = v.val
				st.PropagatedLoads++
				continue
			}
			vals[i] = refVal(i)
			v.val, v.known = vals[i], true
			isOp[i] = true

		case t.Op == ir.Store:
			v := &vars[ids[i]]
			v.val, v.known = resolve(t, 0), true
			if v.lastStore != 0 {
				st.DeadStores++
			}
			v.lastStore = int32(i + 1)

		case t.Op.IsBinary():
			a, bb := resolve(t, 0), resolve(t, 1)
			if !a.isRef && !bb.isRef {
				c, err := ir.EvalOp(t.Op, a.c, bb.c)
				if err != nil {
					return nil, Stats{}, err
				}
				vals[i] = constVal(c)
				st.Folded++
				continue
			}
			if opts.Algebraic {
				if v, ok := simplify(t.Op, a, bb); ok {
					vals[i] = v
					st.Algebraic++
					continue
				}
			}
			// An entry's canonical operands are recomputed from vals,
			// which never change once set.
			a, bb = canonical(t.Op, a, bb)
			mask := uint32(len(table) - 1)
			for h := hashComputation(t.Op, a, bb) & mask; ; h = (h + 1) & mask {
				e := table[h]
				if e == 0 {
					table[h] = int32(i + 1)
					vals[i] = refVal(i)
					isOp[i] = true
					break
				}
				p := &ts[e-1]
				if p.Op != t.Op {
					continue
				}
				if pa, pb := canonical(p.Op, resolve(p, 0), resolve(p, 1)); pa == a && pb == bb {
					vals[i] = refVal(int(e - 1))
					st.CSE++
					break
				}
			}

		default:
			return nil, Stats{}, fmt.Errorf("opt: unsupported op %v", t.Op)
		}
	}

	// Liveness: final stores are roots. Every ref points to an earlier
	// position, so one backward sweep closes the live set.
	for _, v := range vars {
		if v.lastStore != 0 {
			live[v.lastStore-1] = true
		}
	}
	out := 0
	for i := n - 1; i >= 0; i-- {
		if !live[i] {
			if isOp[i] {
				st.DeadOps++
			}
			continue
		}
		out++
		t := &ts[i]
		for k := 0; k < t.NumArgs(); k++ {
			if v := resolve(t, k); v.isRef {
				live[v.ref] = true
			}
		}
	}

	// Rebuild: surviving tuples in original order with original numbering.
	ob := &ir.Block{Tuples: make([]ir.Tuple, 0, out), IDs: make([]int, 0, out)}
	for i := range ts {
		if !live[i] {
			continue
		}
		t := &ts[i]
		nt := ir.Tuple{Op: t.Op, Var: t.Var, Args: [2]int{ir.NoArg, ir.NoArg}}
		for k := 0; k < t.NumArgs(); k++ {
			if v := resolve(t, k); v.isRef {
				nt.Args[k] = int(newPos[v.ref])
			} else {
				nt.IsImm[k] = true
				nt.Imm[k] = v.c
			}
		}
		newPos[i] = int32(len(ob.Tuples))
		ob.Tuples = append(ob.Tuples, nt)
		ob.IDs = append(ob.IDs, b.ID(i))
	}
	st.Output = ob.Len()
	if err := ob.Validate(); err != nil {
		return nil, Stats{}, fmt.Errorf("opt: produced invalid block: %w", err)
	}
	return ob, st, nil
}

// varState is the optimizer's per-variable state.
type varState struct {
	val       value // current value, when known
	known     bool
	lastStore int32 // input position + 1 of the latest store; 0 = none
}

// canonical orders the operands of a commutative op, constants first, so
// that a+b and b+a share one table entry.
func canonical(op ir.Op, a, b value) (value, value) {
	if op.IsCommutative() && less(b, a) {
		return b, a
	}
	return a, b
}

// hashComputation mixes a canonical computation into a table index.
func hashComputation(op ir.Op, a, b value) uint32 {
	const m = 0x9E3779B97F4A7C15
	h := (uint64(op) ^ operandWord(a)) * m
	h = (h ^ operandWord(b)) * m
	return uint32(h >> 32)
}

func operandWord(v value) uint64 {
	if v.isRef {
		return uint64(v.ref)<<1 | 1
	}
	return uint64(v.c) << 1
}

// tableSize is the power-of-two open-addressing table size for at most n
// entries: at least 2n, so probes stay short.
func tableSize(n int) int {
	size := 1
	for size < 2*n {
		size <<= 1
	}
	return size
}

// simplify applies algebraic identities that are valid under the package's
// total semantics (division and modulus by zero yield zero). It returns the
// simplified value and true when an identity applies.
func simplify(op ir.Op, a, b value) (value, bool) {
	isConst := func(v value, c int64) bool { return !v.isRef && v.c == c }
	sameRef := a.isRef && b.isRef && a.ref == b.ref
	switch op {
	case ir.Add:
		if isConst(a, 0) {
			return b, true
		}
		if isConst(b, 0) {
			return a, true
		}
	case ir.Sub:
		if isConst(b, 0) {
			return a, true
		}
		if sameRef {
			return constVal(0), true
		}
	case ir.Mul:
		if isConst(a, 0) || isConst(b, 0) {
			return constVal(0), true
		}
		if isConst(a, 1) {
			return b, true
		}
		if isConst(b, 1) {
			return a, true
		}
	case ir.Div:
		if isConst(b, 1) {
			return a, true
		}
		if isConst(a, 0) {
			return constVal(0), true // 0/x == 0 even when x == 0 (total semantics)
		}
	case ir.Mod:
		if isConst(b, 1) {
			return constVal(0), true
		}
		if isConst(a, 0) {
			return constVal(0), true
		}
		if sameRef {
			return constVal(0), true // x%x == 0, incl. x==0 under total semantics
		}
	case ir.And:
		if isConst(a, 0) || isConst(b, 0) {
			return constVal(0), true
		}
		if isConst(a, -1) {
			return b, true
		}
		if isConst(b, -1) {
			return a, true
		}
		if sameRef {
			return a, true
		}
	case ir.Or:
		if isConst(a, 0) {
			return b, true
		}
		if isConst(b, 0) {
			return a, true
		}
		if isConst(a, -1) || isConst(b, -1) {
			return constVal(-1), true
		}
		if sameRef {
			return a, true
		}
	}
	return value{}, false
}
