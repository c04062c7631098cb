package lang

import (
	"fmt"

	"barriermimd/internal/ir"
)

// operand is either a tuple position or an immediate during compilation.
type operand struct {
	pos   int
	imm   int64
	isImm bool
}

// Compile lowers a program to naive tuple code, exactly as the paper's
// code generator does before optimization: every variable reference emits a
// Load, every assignment emits a Store, and integer literals become
// immediate operands. No optimization is performed here; feed the result to
// opt.Optimize to obtain the paper's post-optimizer benchmark form.
func Compile(p *Program) (*ir.Block, error) {
	// Count the tuples first, so the block is allocated once.
	n := 0
	for _, s := range p.Stmts {
		k, err := countTuples(s.RHS)
		if err != nil {
			return nil, err
		}
		n += k + 1
	}
	b := &ir.Block{Tuples: make([]ir.Tuple, 0, n), IDs: make([]int, 0, n)}
	for _, s := range p.Stmts {
		st := ir.Tuple{Op: ir.Store, Var: s.Name, Args: [2]int{ir.NoArg, ir.NoArg}}
		setOperand(&st, 0, lower(b, s.RHS))
		b.Append(st)
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("lang: generated invalid block: %w", err)
	}
	return b, nil
}

// countTuples returns how many tuples lower emits for e: one Load per
// variable reference and one tuple per operator. It rejects any
// expression lower cannot lower.
func countTuples(e Expr) (int, error) {
	switch e := e.(type) {
	case Var:
		return 1, nil
	case Const:
		return 0, nil
	case Binary:
		l, err := countTuples(e.L)
		if err != nil {
			return 0, err
		}
		r, err := countTuples(e.R)
		return 1 + l + r, err
	}
	return 0, fmt.Errorf("lang: unknown expression %T", e)
}

// lower appends the tuples of an expression countTuples accepted,
// operands before their consumer, and returns its value.
func lower(b *ir.Block, e Expr) operand {
	switch e := e.(type) {
	case Var:
		return operand{pos: b.Append(ir.Tuple{Op: ir.Load, Var: e.Name, Args: [2]int{ir.NoArg, ir.NoArg}})}
	case Binary:
		t := ir.Tuple{Op: e.Op, Args: [2]int{ir.NoArg, ir.NoArg}}
		setOperand(&t, 0, lower(b, e.L))
		setOperand(&t, 1, lower(b, e.R))
		return operand{pos: b.Append(t)}
	}
	return operand{imm: e.(Const).Value, isImm: true}
}

func setOperand(t *ir.Tuple, k int, o operand) {
	if o.isImm {
		t.IsImm[k] = true
		t.Imm[k] = o.imm
	} else {
		t.Args[k] = o.pos
	}
}
