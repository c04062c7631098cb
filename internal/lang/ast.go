package lang

import (
	"fmt"
	"strconv"

	"barriermimd/internal/ir"
)

// Expr is an expression node: Var, Const or Binary.
type Expr interface {
	// String renders the expression with explicit parentheses.
	String() string
	// eval computes the expression value against a memory.
	eval(mem ir.Memory) int64
}

// Var is a variable reference.
type Var struct{ Name string }

func (v Var) String() string           { return v.Name }
func (v Var) eval(mem ir.Memory) int64 { return mem[v.Name] }

// Const is an integer literal.
type Const struct{ Value int64 }

func (c Const) String() string       { return strconv.FormatInt(c.Value, 10) }
func (c Const) eval(ir.Memory) int64 { return c.Value }

// Binary applies one of the seven arithmetic/logical operators.
type Binary struct {
	Op   ir.Op // Add..Mod
	L, R Expr
}

func (b Binary) String() string { return string(appendExpr(nil, b)) }

func (b Binary) eval(mem ir.Memory) int64 {
	v, _ := ir.EvalOp(b.Op, b.L.eval(mem), b.R.eval(mem))
	return v
}

// appendExpr appends e's rendering, with every binary operation in
// parentheses, to buf. Program and statement rendering goes through it,
// so no expression is formatted through fmt.
func appendExpr(buf []byte, e Expr) []byte {
	switch e := e.(type) {
	case Var:
		return append(buf, e.Name...)
	case Const:
		return strconv.AppendInt(buf, e.Value, 10)
	case Binary:
		buf = appendExpr(append(buf, '('), e.L)
		buf = append(append(append(buf, ' '), opSymbol(e.Op)...), ' ')
		return append(appendExpr(buf, e.R), ')')
	}
	return fmt.Appendf(buf, "%s", e) // nil, or a pointer to an expression
}

// opSymbol maps an ir.Op to its surface syntax.
func opSymbol(op ir.Op) string {
	switch op {
	case ir.Add:
		return "+"
	case ir.Sub:
		return "-"
	case ir.Mul:
		return "*"
	case ir.Div:
		return "/"
	case ir.Mod:
		return "%"
	case ir.And:
		return "&"
	case ir.Or:
		return "|"
	}
	return "?"
}

// Assign is one statement: Name = RHS.
type Assign struct {
	Name string
	RHS  Expr
	Line int
}

func (a Assign) String() string { return string(a.appendTo(nil)) }

func (a Assign) appendTo(buf []byte) []byte {
	return appendExpr(append(append(buf, a.Name...), " = "...), a.RHS)
}

// Program is a basic block of assignment statements.
type Program struct {
	Stmts []Assign
}

// String renders the program one statement per line, parseable back by
// Parse.
func (p *Program) String() string {
	buf := make([]byte, 0, 32*len(p.Stmts)) // a synthetic statement renders to about 20 bytes
	for _, s := range p.Stmts {
		buf = append(s.appendTo(buf), '\n')
	}
	return string(buf)
}

// Eval executes the program against a copy of the initial memory. It is
// the reference semantics used by property tests to check that compilation
// and optimization preserve meaning.
func (p *Program) Eval(initial ir.Memory) ir.Memory {
	mem := initial.Clone()
	for _, s := range p.Stmts {
		mem[s.Name] = s.RHS.eval(mem)
	}
	return mem
}

// Variables returns all variable names referenced or assigned, in first
// appearance order.
func (p *Program) Variables() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	var walk func(Expr)
	walk = func(e Expr) {
		switch e := e.(type) {
		case Var:
			add(e.Name)
		case Binary:
			walk(e.L)
			walk(e.R)
		}
	}
	for _, s := range p.Stmts {
		walk(s.RHS)
		add(s.Name)
	}
	return out
}

// OperatorCounts returns a histogram of binary operators in the program,
// used to validate the synthetic generator against Table 1 frequencies.
func (p *Program) OperatorCounts() map[ir.Op]int {
	counts := make(map[ir.Op]int)
	var walk func(Expr)
	walk = func(e Expr) {
		if b, ok := e.(Binary); ok {
			counts[b.Op]++
			walk(b.L)
			walk(b.R)
		}
	}
	for _, s := range p.Stmts {
		walk(s.RHS)
	}
	return counts
}
