package lang

import (
	"fmt"
	"strconv"

	"barriermimd/internal/ir"
)

// Parse parses a basic block of assignment statements. Statements are
// terminated by semicolons or newlines. Operator precedence, tightest
// first: * / %, then + -, then &, then | (the C ordering restricted to the
// paper's seven operators).
func Parse(src string) (*Program, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	prog := &Program{}
	for {
		for p.tok.Kind == TokSemi {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if p.tok.Kind == TokEOF {
			return prog, nil
		}
		stmt, err := p.assignment()
		if err != nil {
			return nil, err
		}
		prog.Stmts = append(prog.Stmts, stmt)
		if p.tok.Kind != TokSemi && p.tok.Kind != TokEOF {
			return nil, p.errHere("expected %v or newline after statement, found %v", TokSemi, p.tok.Kind)
		}
	}
}

// MustParse is a test/fixture helper that panics on parse errors.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("lang.MustParse: %v", err))
	}
	return p
}

type parser struct {
	lex lexer
	tok Token
	// pushback holds tokens un-read by bounded lookahead (the 'else'
	// search), consumed LIFO before the lexer is asked for more.
	pushback []Token
}

func (p *parser) advance() error {
	if n := len(p.pushback); n > 0 {
		p.tok = p.pushback[n-1]
		p.pushback = p.pushback[:n-1]
		return nil
	}
	tok, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = tok
	return nil
}

func (p *parser) errHere(format string, args ...any) error {
	return &SyntaxError{Line: p.tok.Line, Col: p.tok.Col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k TokenKind) (Token, error) {
	if p.tok.Kind != k {
		return Token{}, p.errHere("expected %v, found %v", k, p.tok.Kind)
	}
	tok := p.tok
	if err := p.advance(); err != nil {
		return Token{}, err
	}
	return tok, nil
}

func (p *parser) assignment() (Assign, error) {
	name, err := p.expect(TokIdent)
	if err != nil {
		return Assign{}, err
	}
	if _, err := p.expect(TokAssign); err != nil {
		return Assign{}, err
	}
	rhs, err := p.expr()
	if err != nil {
		return Assign{}, err
	}
	return Assign{Name: name.Text, RHS: rhs, Line: name.Line}, nil
}

// precedence is a binary operator's binding power; higher binds tighter.
type precedence uint8

const (
	precNone precedence = iota // not a binary operator
	precOr                     // |
	precAnd                    // &
	precAdd                    // + -
	precMul                    // * / %
)

// binaryOp returns the operator a token denotes and its precedence, or
// precNone when the token is not a binary operator.
func binaryOp(k TokenKind) (ir.Op, precedence) {
	switch k {
	case TokPipe:
		return ir.Or, precOr
	case TokAmp:
		return ir.And, precAnd
	case TokPlus:
		return ir.Add, precAdd
	case TokMinus:
		return ir.Sub, precAdd
	case TokStar:
		return ir.Mul, precMul
	case TokSlash:
		return ir.Div, precMul
	case TokPercent:
		return ir.Mod, precMul
	}
	return ir.Nop, precNone
}

// expr parses a full expression.
func (p *parser) expr() (Expr, error) { return p.binary(precOr) }

// binary parses an expression whose binary operators all bind at least
// as tightly as lowest, by precedence climbing: operators of one level
// associate to the left.
func (p *parser) binary(lowest precedence) (Expr, error) {
	left, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		op, prec := binaryOp(p.tok.Kind)
		if prec < lowest {
			return left, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.binary(prec + 1)
		if err != nil {
			return nil, err
		}
		left = Binary{Op: op, L: left, R: right}
	}
}

func (p *parser) primary() (Expr, error) {
	switch p.tok.Kind {
	case TokIdent:
		name := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return Var{Name: name}, nil
	case TokNumber:
		v, err := strconv.ParseInt(p.tok.Text, 10, 64)
		if err != nil {
			return nil, p.errHere("number out of range: %s", p.tok.Text)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return Const{Value: v}, nil
	case TokMinus: // negative literal or negated expression: 0 - primary
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.primary()
		if err != nil {
			return nil, err
		}
		if c, ok := e.(Const); ok {
			return Const{Value: -c.Value}, nil
		}
		return Binary{Op: ir.Sub, L: Const{0}, R: e}, nil
	case TokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errHere("expected expression, found %v", p.tok.Kind)
}
