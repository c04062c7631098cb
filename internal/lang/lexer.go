package lang

import (
	"fmt"
	"unicode"
	"unicode/utf8"
)

// TokenKind classifies lexical tokens.
type TokenKind uint8

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokAssign // =
	TokPlus   // +
	TokMinus  // -
	TokStar   // *
	TokSlash  // /
	TokPercent
	TokAmp  // &
	TokPipe // |
	TokLParen
	TokRParen
	TokLBrace
	TokRBrace
	TokSemi // ; or newline
)

var tokenNames = [...]string{
	TokEOF: "end of input", TokIdent: "identifier", TokNumber: "number",
	TokAssign: "'='", TokPlus: "'+'", TokMinus: "'-'", TokStar: "'*'",
	TokSlash: "'/'", TokPercent: "'%'", TokAmp: "'&'", TokPipe: "'|'",
	TokLParen: "'('", TokRParen: "')'",
	TokLBrace: "'{'", TokRBrace: "'}'", TokSemi: "';'",
}

func (k TokenKind) String() string {
	if int(k) < len(tokenNames) {
		return tokenNames[k]
	}
	return fmt.Sprintf("token(%d)", uint8(k))
}

// punct maps each single-character ASCII token to its kind; TokEOF (the
// zero value) marks every other byte.
var punct = [utf8.RuneSelf]TokenKind{
	'=': TokAssign, '+': TokPlus, '-': TokMinus, '*': TokStar,
	'/': TokSlash, '%': TokPercent, '&': TokAmp, '|': TokPipe,
	'(': TokLParen, ')': TokRParen, ';': TokSemi,
	'{': TokLBrace, '}': TokRBrace,
}

// Token is a lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string
	Line int // 1-based
	Col  int // 1-based
}

// SyntaxError reports a lexical or parse error with position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

// lexer converts source text into tokens. Newlines are significant: they
// act as statement terminators (TokSemi), as do explicit semicolons.
// Comments run from '#' or "//" to end of line.
//
// The lexer walks src by byte offset and decodes UTF-8 only off the ASCII
// fast path. An invalid byte decodes to utf8.RuneError one byte at a
// time, exactly as converting src to a rune slice would, so columns
// count those runes. Token texts are substrings of src.
type lexer struct {
	src         string
	pos         int  // byte offset
	line, col   int  // col counts runes
	emittedSemi bool // collapse runs of terminators
}

func newLexer(src string) lexer {
	return lexer{src: src, line: 1, col: 1, emittedSemi: true}
}

func (l *lexer) errf(format string, args ...any) *SyntaxError {
	return &SyntaxError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

// peek returns the rune at pos and its width in bytes, or (0, 0) at the
// end of input.
func (l *lexer) peek() (rune, int) {
	if l.pos >= len(l.src) {
		return 0, 0
	}
	if c := l.src[l.pos]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[l.pos:])
}

// advance moves past one rune of width w.
func (l *lexer) advance(w int) {
	if l.src[l.pos] == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	l.pos += w
}

// scan advances past every rune that satisfies ok.
func (l *lexer) scan(ok func(rune) bool) {
	for {
		r, w := l.peek()
		if w == 0 || !ok(r) {
			return
		}
		l.advance(w)
	}
}

func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }

func isIdentRest(r rune) bool { return isIdentStart(r) || unicode.IsDigit(r) }

// next returns the next token.
func (l *lexer) next() (Token, error) {
	for l.pos < len(l.src) {
		switch c := l.src[l.pos]; {
		case c == '\n':
			if l.emittedSemi {
				l.advance(1) // collapse runs of terminators
				continue
			}
			tok := Token{Kind: TokSemi, Text: "\\n", Line: l.line, Col: l.col}
			l.advance(1)
			l.emittedSemi = true
			return tok, nil
		case c == ' ' || c == '\t' || c == '\r':
			l.advance(1)
			continue
		case c == '#' || c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			l.scan(func(r rune) bool { return r != '\n' })
			continue
		}
		break
	}
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Line: l.line, Col: l.col}, nil
	}

	line, col, start := l.line, l.col, l.pos
	r, w := l.peek()
	switch {
	case isIdentStart(r):
		l.scan(isIdentRest)
		l.emittedSemi = false
		return Token{Kind: TokIdent, Text: l.src[start:l.pos], Line: line, Col: col}, nil
	case unicode.IsDigit(r):
		l.scan(unicode.IsDigit)
		if r, _ := l.peek(); isIdentStart(r) {
			return Token{}, l.errf("malformed number")
		}
		l.emittedSemi = false
		return Token{Kind: TokNumber, Text: l.src[start:l.pos], Line: line, Col: col}, nil
	case r < utf8.RuneSelf && punct[r] != TokEOF:
		k := punct[r]
		l.advance(w)
		l.emittedSemi = k == TokSemi
		return Token{Kind: k, Text: l.src[start:l.pos], Line: line, Col: col}, nil
	}
	return Token{}, l.errf("unexpected character %q", r)
}

// Lex tokenizes src completely; mainly a testing convenience.
func Lex(src string) ([]Token, error) {
	l := newLexer(src)
	var out []Token
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, tok)
		if tok.Kind == TokEOF {
			return out, nil
		}
	}
}
