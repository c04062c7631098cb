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
	b := &ir.Block{}
	var genExpr func(e Expr) (operand, error)
	genExpr = func(e Expr) (operand, error) {
		switch e := e.(type) {
		case Var:
			pos := b.Append(ir.Tuple{Op: ir.Load, Var: e.Name, Args: [2]int{ir.NoArg, ir.NoArg}})
			return operand{pos: pos}, nil
		case Const:
			return operand{imm: e.Value, isImm: true}, nil
		case Binary:
			l, err := genExpr(e.L)
			if err != nil {
				return operand{}, err
			}
			r, err := genExpr(e.R)
			if err != nil {
				return operand{}, err
			}
			t := ir.Tuple{Op: e.Op, Args: [2]int{ir.NoArg, ir.NoArg}}
			for k, o := range []operand{l, r} {
				if o.isImm {
					t.IsImm[k] = true
					t.Imm[k] = o.imm
				} else {
					t.Args[k] = o.pos
				}
			}
			return operand{pos: b.Append(t)}, nil
		}
		return operand{}, fmt.Errorf("lang: unknown expression %T", e)
	}

	for _, s := range p.Stmts {
		o, err := genExpr(s.RHS)
		if err != nil {
			return nil, err
		}
		st := ir.Tuple{Op: ir.Store, Var: s.Name, Args: [2]int{ir.NoArg, ir.NoArg}}
		if o.isImm {
			st.IsImm[0] = true
			st.Imm[0] = o.imm
		} else {
			st.Args[0] = o.pos
		}
		b.Append(st)
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("lang: generated invalid block: %w", err)
	}
	return b, nil
}
