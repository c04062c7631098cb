package opt

import (
	"fmt"
	"sort"

	"barriermimd/internal/ir"
)

// This file keeps the map-based optimizer that OptimizeOpts replaced, as
// the differential oracle: OptimizeOpts must return the same tuples, IDs,
// Stats and errors for every block (TestOptimizeMatchesOracle,
// FuzzOptimize).

// key canonically identifies a computation for CSE.
type key struct {
	op     ir.Op
	aRef   int
	aConst int64
	aIsRef bool
	bRef   int
	bConst int64
	bIsRef bool
}

func makeKey(op ir.Op, a, b value) key {
	if op.IsCommutative() && less(b, a) {
		a, b = b, a
	}
	return key{op: op, aRef: a.ref, aConst: a.c, aIsRef: a.isRef,
		bRef: b.ref, bConst: b.c, bIsRef: b.isRef}
}

// optimizeOracle is the map-based OptimizeOpts.
func optimizeOracle(b *ir.Block, opts Options) (*ir.Block, Stats, error) {
	if err := b.Validate(); err != nil {
		return nil, Stats{}, err
	}
	st := Stats{Input: b.Len()}

	vals := make([]value, b.Len())    // value of each input tuple
	varVal := make(map[string]value)  // current value of each variable
	exprs := make(map[key]int)        // computation -> surviving input pos
	lastStore := make(map[string]int) // variable -> input pos of final store
	isOp := make([]bool, b.Len())     // true if tuple is a surviving op candidate

	resolve := func(t ir.Tuple, k int) value {
		if t.IsImm[k] {
			return constVal(t.Imm[k])
		}
		return vals[t.Args[k]]
	}

	for i, t := range b.Tuples {
		switch {
		case t.Op == ir.Load:
			if v, ok := varVal[t.Var]; ok {
				vals[i] = v
				st.PropagatedLoads++
				continue
			}
			vals[i] = refVal(i)
			varVal[t.Var] = vals[i]
			isOp[i] = true

		case t.Op == ir.Store:
			v := resolve(t, 0)
			varVal[t.Var] = v
			if prev, ok := lastStore[t.Var]; ok {
				_ = prev
				st.DeadStores++
			}
			lastStore[t.Var] = i

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
			k := makeKey(t.Op, a, bb)
			if pos, ok := exprs[k]; ok {
				vals[i] = refVal(pos)
				st.CSE++
				continue
			}
			vals[i] = refVal(i)
			exprs[k] = i
			isOp[i] = true

		default:
			return nil, Stats{}, fmt.Errorf("opt: unsupported op %v", t.Op)
		}
	}

	// Liveness: final stores are roots; walk back through refs.
	live := make([]bool, b.Len())
	var mark func(v value)
	mark = func(v value) {
		if !v.isRef || live[v.ref] {
			return
		}
		live[v.ref] = true
		t := b.Tuples[v.ref]
		for k := 0; k < t.NumArgs(); k++ {
			mark(resolve(t, k))
		}
	}
	storePositions := make([]int, 0, len(lastStore))
	for _, pos := range lastStore {
		storePositions = append(storePositions, pos)
	}
	sort.Ints(storePositions)
	for _, pos := range storePositions {
		live[pos] = true
		mark(resolve(b.Tuples[pos], 0))
	}
	for i := range isOp {
		if isOp[i] && !live[i] {
			st.DeadOps++
		}
	}

	// Rebuild: surviving tuples in original order with original numbering.
	out := &ir.Block{}
	newPos := make(map[int]int)
	emitOperand := func(t *ir.Tuple, k int, v value) {
		if v.isRef {
			t.Args[k] = newPos[v.ref]
			t.IsImm[k] = false
		} else {
			t.Args[k] = ir.NoArg
			t.IsImm[k] = true
			t.Imm[k] = v.c
		}
	}
	for i, t := range b.Tuples {
		if !live[i] {
			continue
		}
		nt := ir.Tuple{Op: t.Op, Var: t.Var, Args: [2]int{ir.NoArg, ir.NoArg}}
		for k := 0; k < t.NumArgs(); k++ {
			emitOperand(&nt, k, resolve(t, k))
		}
		newPos[i] = len(out.Tuples)
		out.Tuples = append(out.Tuples, nt)
		out.IDs = append(out.IDs, b.ID(i))
	}
	st.Output = out.Len()
	if err := out.Validate(); err != nil {
		return nil, Stats{}, fmt.Errorf("opt: produced invalid block: %w", err)
	}
	return out, st, nil
}
