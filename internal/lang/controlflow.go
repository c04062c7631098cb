package lang

import (
	"fmt"
	"strings"

	"barriermimd/internal/ir"
)

// This file extends the basic-block language of section 2 with the control
// structures the paper's conclusion names as ongoing work ("extension of
// the basic scheduling techniques to more complex code structures,
// including arbitrary control flow" [OKee90]): if/else and while over the
// same assignment statements. Conditions treat any nonzero value as true.
//
// The flat Parse entry point continues to accept only straight-line
// blocks; ParseCF accepts the extended grammar:
//
//	stmt  := IDENT '=' expr
//	       | 'if' expr '{' stmts '}' ('else' '{' stmts '}')?
//	       | 'while' expr '{' stmts '}'

// Stmt is a statement of the extended language: Assign, If or While.
type Stmt interface {
	// String renders the statement (multi-line for compound statements).
	String() string
}

// If branches on Cond != 0.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt // may be nil
}

func (s If) String() string { return string(appendStmt(nil, s, 0)) }

// While repeats Body while Cond != 0.
type While struct {
	Cond Expr
	Body []Stmt
}

func (s While) String() string { return string(appendStmt(nil, s, 0)) }

// appendStmt appends s's rendering to buf with every line indented by
// depth levels of two spaces.
func appendStmt(buf []byte, s Stmt, depth int) []byte {
	switch s := s.(type) {
	case Assign:
		return s.appendTo(appendIndent(buf, depth))
	case If:
		buf = appendExpr(append(appendIndent(buf, depth), "if "...), s.Cond)
		buf = appendBody(buf, s.Then, depth)
		if s.Else != nil {
			buf = appendBody(append(buf, " else"...), s.Else, depth)
		}
		return buf
	case While:
		buf = appendExpr(append(appendIndent(buf, depth), "while "...), s.Cond)
		return appendBody(buf, s.Body, depth)
	}
	for k, line := range strings.Split(s.String(), "\n") {
		if k > 0 {
			buf = append(buf, '\n')
		}
		buf = append(appendIndent(buf, depth), line...)
	}
	return buf
}

// appendBody appends a braced statement list one level deeper than
// depth, closing it at depth.
func appendBody(buf []byte, stmts []Stmt, depth int) []byte {
	buf = append(buf, " {\n"...)
	for _, s := range stmts {
		buf = append(appendStmt(buf, s, depth+1), '\n')
	}
	return append(appendIndent(buf, depth), '}')
}

func appendIndent(buf []byte, depth int) []byte {
	for ; depth > 0; depth-- {
		buf = append(buf, "  "...)
	}
	return buf
}

// CFProgram is a program in the extended language.
type CFProgram struct {
	Stmts []Stmt
}

// String renders the program; the output reparses with ParseCF.
func (p *CFProgram) String() string {
	var buf []byte
	for _, s := range p.Stmts {
		buf = append(appendStmt(buf, s, 0), '\n')
	}
	return string(buf)
}

// ErrStepLimit is returned by Eval when execution exceeds the step budget
// (e.g. a nonterminating while loop).
var ErrStepLimit = fmt.Errorf("lang: evaluation exceeded step limit")

// Eval executes the program against a copy of the initial memory,
// executing at most limit assignments (0 means 1e6). It is the reference
// semantics for the control-flow pipeline.
func (p *CFProgram) Eval(initial ir.Memory, limit int) (ir.Memory, error) {
	if limit <= 0 {
		limit = 1_000_000
	}
	mem := initial.Clone()
	steps := 0
	var run func(stmts []Stmt) error
	run = func(stmts []Stmt) error {
		for _, s := range stmts {
			switch s := s.(type) {
			case Assign:
				if steps++; steps > limit {
					return ErrStepLimit
				}
				mem[s.Name] = s.RHS.eval(mem)
			case If:
				if s.Cond.eval(mem) != 0 {
					if err := run(s.Then); err != nil {
						return err
					}
				} else if s.Else != nil {
					if err := run(s.Else); err != nil {
						return err
					}
				}
			case While:
				for s.Cond.eval(mem) != 0 {
					if steps++; steps > limit {
						return ErrStepLimit
					}
					if err := run(s.Body); err != nil {
						return err
					}
				}
			default:
				return fmt.Errorf("lang: unknown statement %T", s)
			}
		}
		return nil
	}
	if err := run(p.Stmts); err != nil {
		return nil, err
	}
	return mem, nil
}

// Variables returns all variable names in the program, in first-appearance
// order.
func (p *CFProgram) Variables() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	var walkExpr func(Expr)
	walkExpr = func(e Expr) {
		switch e := e.(type) {
		case Var:
			add(e.Name)
		case Binary:
			walkExpr(e.L)
			walkExpr(e.R)
		}
	}
	var walk func([]Stmt)
	walk = func(stmts []Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case Assign:
				walkExpr(s.RHS)
				add(s.Name)
			case If:
				walkExpr(s.Cond)
				walk(s.Then)
				walk(s.Else)
			case While:
				walkExpr(s.Cond)
				walk(s.Body)
			}
		}
	}
	walk(p.Stmts)
	return out
}

// ParseCF parses the extended language.
func ParseCF(src string) (*CFProgram, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	stmts, err := p.stmtList(TokEOF)
	if err != nil {
		return nil, err
	}
	return &CFProgram{Stmts: stmts}, nil
}

// MustParseCF is a fixture helper that panics on parse errors.
func MustParseCF(src string) *CFProgram {
	p, err := ParseCF(src)
	if err != nil {
		panic(fmt.Sprintf("lang.MustParseCF: %v", err))
	}
	return p
}

// stmtList parses statements until the closing token (TokEOF or TokRBrace)
// is reached; the closer is not consumed.
func (p *parser) stmtList(closer TokenKind) ([]Stmt, error) {
	var out []Stmt
	for {
		for p.tok.Kind == TokSemi {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if p.tok.Kind == closer {
			return out, nil
		}
		if p.tok.Kind == TokEOF {
			return nil, p.errHere("expected %v, found %v", closer, p.tok.Kind)
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if p.tok.Kind != TokSemi && p.tok.Kind != closer && p.tok.Kind != TokEOF {
			return nil, p.errHere("expected %v or newline after statement, found %v", TokSemi, p.tok.Kind)
		}
	}
}

func (p *parser) statement() (Stmt, error) {
	if p.tok.Kind == TokIdent {
		switch p.tok.Text {
		case "if":
			return p.ifStmt()
		case "while":
			return p.whileStmt()
		case "else":
			return nil, p.errHere("'else' without matching 'if'")
		}
	}
	a, err := p.assignment()
	if err != nil {
		return nil, err
	}
	return a, nil
}

// block parses '{' stmts '}' allowing a newline after '{'.
func (p *parser) block() ([]Stmt, error) {
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	stmts, err := p.stmtList(TokRBrace)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRBrace); err != nil {
		return nil, err
	}
	return stmts, nil
}

func (p *parser) ifStmt() (Stmt, error) {
	if err := p.advance(); err != nil { // consume 'if'
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	out := If{Cond: cond, Then: then}
	// An 'else' may follow, possibly after statement terminators.
	var skipped []Token
	for p.tok.Kind == TokSemi {
		skipped = append(skipped, p.tok)
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.Kind == TokIdent && p.tok.Text == "else" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		els, err := p.block()
		if err != nil {
			return nil, err
		}
		if els == nil {
			els = []Stmt{}
		}
		out.Else = els
		return out, nil
	}
	// No else: un-read the current token and the skipped terminators so
	// the caller sees the stream exactly as before the lookahead.
	if len(skipped) > 0 {
		p.pushback = append(p.pushback, p.tok)
		for i := len(skipped) - 1; i >= 1; i-- {
			p.pushback = append(p.pushback, skipped[i])
		}
		p.tok = skipped[0]
	}
	return out, nil
}

func (p *parser) whileStmt() (Stmt, error) {
	if err := p.advance(); err != nil { // consume 'while'
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return While{Cond: cond, Body: body}, nil
}
