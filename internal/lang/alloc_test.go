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
