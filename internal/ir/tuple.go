package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// NoArg marks an unused operand slot in a Tuple.
const NoArg = -1

// Tuple is a single three-address instruction in a basic block. Tuples are
// numbered by their position in the block at generation time; operands refer
// to producing tuples by that number, matching the paper's Figure 1
// listing format:
//
//	0  Load i
//	1  Load a
//	2  Add 0,1
//	3  Store b,2
//
// Operand slots may instead hold an immediate constant (IsImm set), which
// models a RISC immediate field: immediates contribute no execution time and
// create no DAG edge.
type Tuple struct {
	// Op is the instruction. Must be Valid in a well-formed block.
	Op Op
	// Var is the variable name for Load (source) and Store (destination).
	// Empty for arithmetic ops.
	Var string
	// Args are operand tuple indices (NoArg when unused or immediate).
	// Load uses none; Store uses Args[0] as the stored value; binary ops
	// use both.
	Args [2]int
	// Imm are immediate operand values, significant only where the
	// corresponding IsImm flag is set.
	Imm [2]int64
	// IsImm marks operand slots that are immediates rather than tuple
	// references.
	IsImm [2]bool
}

// NumArgs returns how many operand slots op consumes (0 for Load, 1 for
// Store, 2 for binary operations).
func (t Tuple) NumArgs() int {
	switch {
	case t.Op == Load:
		return 0
	case t.Op == Store:
		return 1
	case t.Op.IsBinary():
		return 2
	}
	return 0
}

// Operands returns the tuple indices referenced by t, skipping immediates
// and unused slots.
func (t Tuple) Operands() []int {
	var out []int
	for k := 0; k < t.NumArgs(); k++ {
		if !t.IsImm[k] && t.Args[k] != NoArg {
			out = append(out, t.Args[k])
		}
	}
	return out
}

// String renders the tuple in the paper's listing format, e.g. "Add 0,1",
// "Load i", "Store b,2".
func (t Tuple) String() string { return string(t.AppendText(nil)) }

// AppendText appends the tuple's listing format (see String) to b.
func (t Tuple) AppendText(b []byte) []byte {
	switch {
	case t.Op == Load:
		return append(append(b, "Load "...), t.Var...)
	case t.Op == Store:
		b = append(append(b, "Store "...), t.Var...)
		return t.appendOperand(append(b, ','), 0)
	case t.Op.IsBinary():
		b = append(append(b, t.Op.String()...), ' ')
		b = t.appendOperand(b, 0)
		return t.appendOperand(append(b, ','), 1)
	}
	return append(b, t.Op.String()...)
}

// appendOperand appends operand slot k in Figure-1 style: a tuple
// number, or '#' and the value of an immediate.
func (t Tuple) appendOperand(b []byte, k int) []byte {
	if t.IsImm[k] {
		return strconv.AppendInt(append(b, '#'), t.Imm[k], 10)
	}
	return strconv.AppendInt(b, int64(t.Args[k]), 10)
}

// Block is a basic block: a single-entry straight-line sequence of tuples
// with no embedded control flow (section 2.1 of the paper). IDs holds the
// original generator-assigned tuple numbers, which survive optimization so
// listings match Figure 1 ("many tuples are not represented because they
// were removed by the optimizer"). IDs[i] is the display number of
// Tuples[i]; operand indices in Tuples refer to *positions* in Tuples, not
// display numbers.
type Block struct {
	Tuples []Tuple
	IDs    []int
}

// Append adds a tuple with the next sequential display ID and returns its
// position.
func (b *Block) Append(t Tuple) int {
	id := len(b.IDs)
	if n := len(b.IDs); n > 0 && b.IDs[n-1] >= id {
		id = b.IDs[n-1] + 1
	}
	b.Tuples = append(b.Tuples, t)
	b.IDs = append(b.IDs, id)
	return len(b.Tuples) - 1
}

// Len returns the number of tuples in the block.
func (b *Block) Len() int { return len(b.Tuples) }

// ID returns the display number for the tuple at position i. Positions
// without an explicit ID (IDs shorter than Tuples) fall back to i.
func (b *Block) ID(i int) int {
	if i < len(b.IDs) {
		return b.IDs[i]
	}
	return i
}

// Validate checks structural well-formedness: valid ops, operand indices in
// range and strictly preceding their consumer (the block is in generation
// order, so data flow is forward only), and variable names present on
// memory ops.
func (b *Block) Validate() error {
	if len(b.IDs) != 0 && len(b.IDs) != len(b.Tuples) {
		return fmt.Errorf("ir: block has %d tuples but %d ids", len(b.Tuples), len(b.IDs))
	}
	for i, t := range b.Tuples {
		if !t.Op.Valid() {
			return fmt.Errorf("ir: tuple %d has invalid op %v", i, t.Op)
		}
		if (t.Op == Load || t.Op == Store) && t.Var == "" {
			return fmt.Errorf("ir: tuple %d (%v) missing variable name", i, t.Op)
		}
		for k := 0; k < t.NumArgs(); k++ {
			if t.IsImm[k] {
				continue
			}
			a := t.Args[k]
			if a == NoArg {
				return fmt.Errorf("ir: tuple %d (%v) missing operand %d", i, t, k)
			}
			if a < 0 || a >= i {
				return fmt.Errorf("ir: tuple %d (%v) operand %d out of range", i, t, a)
			}
			if op := b.Tuples[a].Op; op == Store {
				return fmt.Errorf("ir: tuple %d consumes store tuple %d", i, a)
			}
		}
	}
	return nil
}

// Listing renders the block in the paper's Figure 1 table format. If times
// is non-nil it must map positions to minimum/maximum finish times, which
// are printed as the two rightmost columns.
func (b *Block) Listing(times func(i int) (min, max int)) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %-14s", "Tuple No.", "Instruction")
	if times != nil {
		fmt.Fprintf(&sb, " %-10s %-10s", "Min. Time", "Max. Time")
	}
	sb.WriteByte('\n')
	for i, t := range b.Tuples {
		// Operand indices are positions; display them as original IDs.
		disp := t
		for k := 0; k < t.NumArgs(); k++ {
			if !t.IsImm[k] && t.Args[k] != NoArg {
				disp.Args[k] = b.ID(t.Args[k])
			}
		}
		fmt.Fprintf(&sb, "%-10d %-14s", b.ID(i), disp.String())
		if times != nil {
			mn, mx := times(i)
			fmt.Fprintf(&sb, " %-10d %-10d", mn, mx)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Variables returns the set of variable names that appear in the block, in
// first-appearance order.
func (b *Block) Variables() []string {
	seen := make(map[string]bool)
	var out []string
	for _, t := range b.Tuples {
		if t.Var != "" && !seen[t.Var] {
			seen[t.Var] = true
			out = append(out, t.Var)
		}
	}
	return out
}

// OpCounts returns a histogram of operations in the block.
func (b *Block) OpCounts() map[Op]int {
	out := make(map[Op]int)
	for _, t := range b.Tuples {
		out[t.Op]++
	}
	return out
}

// Clone returns a deep copy of the block.
func (b *Block) Clone() *Block {
	nb := &Block{
		Tuples: append([]Tuple(nil), b.Tuples...),
		IDs:    append([]int(nil), b.IDs...),
	}
	return nb
}
