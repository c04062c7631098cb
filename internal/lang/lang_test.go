package lang

import (
	"math/rand"
	"strings"
	"testing"

	"barriermimd/internal/ir"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("a = b + 42 # comment\nc=a*2")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	want := []TokenKind{
		TokIdent, TokAssign, TokIdent, TokPlus, TokNumber, TokSemi,
		TokIdent, TokAssign, TokIdent, TokStar, TokNumber, TokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("a = 1\n b = 2")
	if err != nil {
		t.Fatal(err)
	}
	// "b" is on line 2, column 2.
	var b Token
	for _, tok := range toks {
		if tok.Kind == TokIdent && tok.Text == "b" {
			b = tok
		}
	}
	if b.Line != 2 || b.Col != 2 {
		t.Errorf("b at %d:%d, want 2:2", b.Line, b.Col)
	}
}

func TestLexCollapsesBlankLines(t *testing.T) {
	toks, err := Lex("a = 1\n\n\n\nb = 2")
	if err != nil {
		t.Fatal(err)
	}
	semis := 0
	for _, tok := range toks {
		if tok.Kind == TokSemi {
			semis++
		}
	}
	if semis != 1 {
		t.Errorf("got %d terminators, want 1", semis)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"a = $", "a = 3x"} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) succeeded, want error", src)
		}
	}
}

func TestLexLineComments(t *testing.T) {
	toks, err := Lex("// leading\na = 1 // trailing\n# hash\nb = 2")
	if err != nil {
		t.Fatal(err)
	}
	idents := 0
	for _, tok := range toks {
		if tok.Kind == TokIdent {
			idents++
		}
	}
	if idents != 2 {
		t.Errorf("identifiers = %d, want 2", idents)
	}
}

func TestParsePrecedence(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"x = a + b * c", "x = (a + (b * c))"},
		{"x = a * b + c", "x = ((a * b) + c)"},
		{"x = a & b + c", "x = (a & (b + c))"},
		{"x = a | b & c", "x = (a | (b & c))"},
		{"x = (a + b) * c", "x = ((a + b) * c)"},
		{"x = a - b - c", "x = ((a - b) - c)"},
		{"x = a / b % c", "x = ((a / b) % c)"},
		{"x = -5", "x = -5"},
		{"x = -y", "x = (0 - y)"},
		{"x = a + -3", "x = (a + -3)"},
	}
	for _, c := range cases {
		p, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if got := strings.TrimSpace(p.String()); got != c.want {
			t.Errorf("Parse(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestParseMultipleStatements(t *testing.T) {
	p, err := Parse("a = 1; b = a + 2\nc = b * a;")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stmts) != 3 {
		t.Fatalf("statements = %d, want 3", len(p.Stmts))
	}
	if p.Stmts[2].Name != "c" {
		t.Errorf("third statement assigns %q", p.Stmts[2].Name)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"a +", "= 3", "a = ", "a = (b + c", "a = b +",
		"a = b c", "3 = a", "a = )",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		} else if _, ok := err.(*SyntaxError); !ok {
			t.Errorf("Parse(%q) error type %T, want *SyntaxError", src, err)
		}
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Parse("a = (b\nc = 1")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error = %v (%T)", err, err)
	}
	if se.Line != 1 {
		t.Errorf("error line = %d, want 1", se.Line)
	}
	if !strings.Contains(se.Error(), ":") {
		t.Errorf("Error() = %q lacks position", se.Error())
	}
}

func TestProgramEval(t *testing.T) {
	p := MustParse("b = i + a\nh = f & d\ne = h - f\ng = c + e\ni = (f + j) - i\na = a + b")
	mem := p.Eval(ir.Memory{"i": 2, "a": 3, "f": 12, "d": 10, "j": 5, "c": 100})
	want := map[string]int64{"b": 5, "h": 8, "e": -4, "g": 96, "i": 15, "a": 8}
	for v, w := range want {
		if mem[v] != w {
			t.Errorf("%s = %d, want %d", v, mem[v], w)
		}
	}
}

func TestProgramVariables(t *testing.T) {
	p := MustParse("x = a + b\ny = x * 3")
	got := p.Variables()
	want := []string{"a", "b", "x", "y"}
	if len(got) != len(want) {
		t.Fatalf("Variables = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Variables[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestOperatorCounts(t *testing.T) {
	p := MustParse("x = a + b + c\ny = a * b - c % d")
	counts := p.OperatorCounts()
	want := map[ir.Op]int{ir.Add: 2, ir.Mul: 1, ir.Sub: 1, ir.Mod: 1}
	for op, n := range want {
		if counts[op] != n {
			t.Errorf("count[%v] = %d, want %d", op, counts[op], n)
		}
	}
}

func TestCompileNaiveLoadPerReference(t *testing.T) {
	p := MustParse("x = a + a")
	b, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	// Naive codegen: two loads of a, one add, one store = 4 tuples.
	if b.Len() != 4 {
		t.Fatalf("tuples = %d, want 4:\n%s", b.Len(), b.Listing(nil))
	}
	if counts := b.OpCounts(); counts[ir.Load] != 2 || counts[ir.Add] != 1 || counts[ir.Store] != 1 {
		t.Errorf("op counts = %v", counts)
	}
}

func TestCompileImmediates(t *testing.T) {
	b, err := Compile(MustParse("x = 5\ny = x + 3"))
	if err != nil {
		t.Fatal(err)
	}
	// x=5 is a store-immediate; y = load x; add imm; store.
	if b.Len() != 4 {
		t.Fatalf("tuples = %d, want 4:\n%s", b.Len(), b.Listing(nil))
	}
	st := b.Tuples[0]
	if st.Op != ir.Store || !st.IsImm[0] || st.Imm[0] != 5 {
		t.Errorf("first tuple = %+v, want store-immediate 5", st)
	}
}

func TestCompilePreservesSemantics(t *testing.T) {
	// Property: AST evaluation and compiled-block evaluation agree on
	// random programs over random memories.
	rng := rand.New(rand.NewSource(7))
	srcs := []string{
		"a = b + c * d\ne = a - b\nf = e % 7\ng = f | a & b",
		"x = x + 1\nx = x * x\ny = x / 3",
		"a = 2 + 3\nb = a * -4\nc = b - b",
		"p = q\nq = p\nr = p + q",
	}
	for _, src := range srcs {
		prog := MustParse(src)
		blk, err := Compile(prog)
		if err != nil {
			t.Fatalf("Compile(%q): %v", src, err)
		}
		for trial := 0; trial < 50; trial++ {
			mem := ir.Memory{}
			for _, v := range prog.Variables() {
				mem[v] = int64(rng.Intn(201) - 100)
			}
			want := prog.Eval(mem)
			got, err := blk.Eval(mem)
			if err != nil {
				t.Fatalf("block eval: %v", err)
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("src %q mem %v: %s = %d, want %d", src, mem, v, got[v], want[v])
				}
			}
		}
	}
}

func TestProgramStringRoundTrip(t *testing.T) {
	src := "a = (b + c) * d\ne = a % 5\nf = -e"
	p1 := MustParse(src)
	p2, err := Parse(p1.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if p1.String() != p2.String() {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", p1.String(), p2.String())
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic on bad input")
		}
	}()
	MustParse("a = ")
}

func TestParseIndentedMultilineSource(t *testing.T) {
	// Regression: indentation after a collapsed blank line must lex.
	src := "\n\t\tb = i + a\n\n\t\th = f & d\n"
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(p.Stmts) != 2 {
		t.Fatalf("statements = %d, want 2", len(p.Stmts))
	}
}

// TestSyntaxErrorText pins the exact message and line:col of lexical and
// parse errors. Columns count runes: a multi-byte letter or an invalid
// UTF-8 byte is one column, and '\r' is plain whitespace.
func TestSyntaxErrorText(t *testing.T) {
	parsers := map[string]func(string) error{
		"Parse":   func(src string) error { _, err := Parse(src); return err },
		"ParseCF": func(src string) error { _, err := ParseCF(src); return err },
		"Lex":     func(src string) error { _, err := Lex(src); return err },
	}
	cases := []struct{ fn, src, want string }{
		{"Parse", "é = 1\nx = é é", "2:7: expected ';' or newline after statement, found identifier"},
		{"Parse", "日本 = 日 +", "1:9: expected expression, found end of input"},
		{"Parse", "日本 = é + $", "1:10: unexpected character '$'"},
		{"Parse", "x = ٣", "1:5: number out of range: ٣"},
		{"Parse", "x = 1٣", "1:5: number out of range: 1٣"},
		{"Lex", "x = ٣a", "1:6: malformed number"},
		{"Parse", "x = \xff", "1:5: unexpected character '�'"},
		{"Parse", "é\xff = 1", "1:2: unexpected character '�'"},
		{"Parse", "x = a\xff\xfe", "1:6: unexpected character '�'"},
		{"Parse", "\xe6\x97 = 1", "1:1: unexpected character '�'"},
		{"Parse", "x = a\x00", `1:6: unexpected character '\x00'`},
		{"Parse", "x = 1\r\ny = $", "2:5: unexpected character '$'"},
		{"Lex", "x = 1a", "1:6: malformed number"},
		{"Lex", "x = $", "1:5: unexpected character '$'"},
		{"Parse", "x = (a + b", "1:11: expected ')', found end of input"},
		{"Parse", "x = (日\n", "1:7: expected ')', found ';'"},
		{"Parse", "a = 99999999999999999999", "1:5: number out of range: 99999999999999999999"},
		{"Parse", "a = b\n\n  c d", "3:5: expected '=', found identifier"},
		{"Parse", "x = 1 +\n", "1:8: expected expression, found ';'"},
		{"Parse", "x = 1 ) ", "1:7: expected ';' or newline after statement, found ')'"},
		{"ParseCF", "if a { x = 1 ", "1:14: expected '}', found end of input"},
		{"ParseCF", "else { }", "1:1: 'else' without matching 'if'"},
		{"ParseCF", "while x { 日 = $ }", "1:15: unexpected character '$'"},
	}
	for _, c := range cases {
		err := parsers[c.fn](c.src)
		if err == nil {
			t.Errorf("%s(%q) succeeded, want %q", c.fn, c.src, c.want)
			continue
		}
		if _, ok := err.(*SyntaxError); !ok {
			t.Errorf("%s(%q) error type %T, want *SyntaxError", c.fn, c.src, err)
		}
		if got := err.Error(); got != c.want {
			t.Errorf("%s(%q) = %q, want %q", c.fn, c.src, got, c.want)
		}
	}
}

// TestLexMultibytePositions pins every token of two lines that mix
// multi-byte letters, a non-ASCII digit, a comment holding an invalid
// byte, tabs and both terminators.
func TestLexMultibytePositions(t *testing.T) {
	toks, err := Lex("日本 = é_1 + x٣ * 42 // 注释 \xff\n\tz\t= (日本 % ab٣c) ; w=1")
	if err != nil {
		t.Fatal(err)
	}
	want := []Token{
		{TokIdent, "日本", 1, 1},
		{TokAssign, "=", 1, 4},
		{TokIdent, "é_1", 1, 6},
		{TokPlus, "+", 1, 10},
		{TokIdent, "x٣", 1, 12},
		{TokStar, "*", 1, 15},
		{TokNumber, "42", 1, 17},
		{TokSemi, "\\n", 1, 27},
		{TokIdent, "z", 2, 2},
		{TokAssign, "=", 2, 4},
		{TokLParen, "(", 2, 6},
		{TokIdent, "日本", 2, 7},
		{TokPercent, "%", 2, 10},
		{TokIdent, "ab٣c", 2, 12},
		{TokRParen, ")", 2, 16},
		{TokSemi, ";", 2, 18},
		{TokIdent, "w", 2, 20},
		{TokAssign, "=", 2, 21},
		{TokNumber, "1", 2, 22},
		{TokEOF, "", 2, 23},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(toks), toks, len(want))
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Errorf("token %d = %+v, want %+v", i, toks[i], want[i])
		}
	}
}
