package lang_test

import (
	"testing"

	"barriermimd/internal/lang"
	"barriermimd/internal/synth"
)

// TestParseAllocs bounds the parser's allocations on a 200-statement
// synthetic block: the AST nodes themselves and the statement slice,
// with no per-token or per-operator garbage.
func TestParseAllocs(t *testing.T) {
	src := synth.MustGenerate(synth.Config{Statements: 200, Variables: 10}, 1).String()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := lang.Parse(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Errorf("Parse of 200 statements: %.0f allocations, want <= 1000", allocs)
	}
}

// TestCompileAllocs pins Compile to the block and its two presized
// slices, whatever the program size.
func TestCompileAllocs(t *testing.T) {
	for _, stmts := range []int{20, 200} {
		p := synth.MustGenerate(synth.Config{Statements: stmts, Variables: 10}, 1)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := lang.Compile(p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Errorf("Compile of %d statements: %.0f allocations, want <= 3", stmts, allocs)
		}
	}
}
