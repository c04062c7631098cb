package lang

import (
	"fmt"
	"strings"

	"barriermimd/internal/ir"
)

// CompileOracle exposes compileOracle to the external test package,
// where TestCompileMatchesOracle runs it over synthetic programs.
var CompileOracle = compileOracle

// compileOracle is the Compile that grew the block one Append at a time,
// kept as the differential oracle for the presized Compile.
func compileOracle(p *Program) (*ir.Block, error) {
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

// RenderOracle and RenderCFOracle expose the fmt rendering oracle to the
// external test package (TestRenderMatchesFmtOracle).
var (
	RenderOracle   = func(p *Program) string { return fmtStmts(assignStmts(p.Stmts)) }
	RenderCFOracle = func(p *CFProgram) string { return fmtStmts(p.Stmts) }
	ExprOracle     = fmtExpr
)

func assignStmts(as []Assign) []Stmt {
	out := make([]Stmt, len(as))
	for i, a := range as {
		out[i] = a
	}
	return out
}

// fmtExpr, fmtStmt and fmtStmts are the fmt-based rendering that the
// append-based writer replaced, kept as its oracle: each String method
// used to format its children through %s.
func fmtExpr(e Expr) string {
	switch e := e.(type) {
	case Var:
		return e.Name
	case Const:
		return fmt.Sprintf("%d", e.Value)
	case Binary:
		return fmt.Sprintf("(%s %s %s)", fmtExpr(e.L), opSymbol(e.Op), fmtExpr(e.R))
	}
	return fmt.Sprintf("%s", e)
}

func fmtStmt(s Stmt) string {
	switch s := s.(type) {
	case Assign:
		return fmt.Sprintf("%s = %s", s.Name, fmtExpr(s.RHS))
	case If:
		var sb strings.Builder
		fmt.Fprintf(&sb, "if %s {\n%s}", fmtExpr(s.Cond), fmtIndent(s.Then))
		if s.Else != nil {
			fmt.Fprintf(&sb, " else {\n%s}", fmtIndent(s.Else))
		}
		return sb.String()
	case While:
		return fmt.Sprintf("while %s {\n%s}", fmtExpr(s.Cond), fmtIndent(s.Body))
	}
	return s.String()
}

func fmtIndent(stmts []Stmt) string {
	var sb strings.Builder
	for _, s := range stmts {
		for _, line := range strings.Split(fmtStmt(s), "\n") {
			sb.WriteString("  ")
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// fmtStmts renders a program: one statement per line.
func fmtStmts(stmts []Stmt) string {
	var sb strings.Builder
	for _, s := range stmts {
		sb.WriteString(fmtStmt(s))
		sb.WriteByte('\n')
	}
	return sb.String()
}
