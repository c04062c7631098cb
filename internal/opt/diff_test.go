package opt

import (
	"fmt"
	"math/rand"
	"testing"

	"barriermimd/internal/ir"
	"barriermimd/internal/lang"
	"barriermimd/internal/synth"
)

// requireMatchesOracle runs OptimizeOpts and the map-based oracle on b
// and fails unless they agree on the error, every tuple, every ID and
// every Stats field.
func requireMatchesOracle(t *testing.T, b *ir.Block, opts Options, what string) {
	t.Helper()
	got, gst, gerr := OptimizeOpts(b, opts)
	want, wst, werr := optimizeOracle(b, opts)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%s %+v: error %v, oracle %v", what, opts, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if gst != wst {
		t.Fatalf("%s %+v: stats %+v, oracle %+v", what, opts, gst, wst)
	}
	if err := sameBlock(got, want); err != nil {
		t.Fatalf("%s %+v: %v\ngot:\n%s\noracle:\n%s", what, opts, err, got.Listing(nil), want.Listing(nil))
	}
}

// sameBlock compares two blocks tuple by tuple and ID by ID.
func sameBlock(got, want *ir.Block) error {
	if len(got.Tuples) != len(want.Tuples) || len(got.IDs) != len(want.IDs) {
		return fmt.Errorf("%d tuples / %d ids, oracle %d / %d",
			len(got.Tuples), len(got.IDs), len(want.Tuples), len(want.IDs))
	}
	for i := range want.Tuples {
		if got.Tuples[i] != want.Tuples[i] {
			return fmt.Errorf("tuple %d is %+v, oracle %+v", i, got.Tuples[i], want.Tuples[i])
		}
	}
	for i := range want.IDs {
		if got.IDs[i] != want.IDs[i] {
			return fmt.Errorf("id %d is %d, oracle %d", i, got.IDs[i], want.IDs[i])
		}
	}
	return nil
}

// TestOptimizeMatchesOracle is the differential test over synthetic
// blocks of 1–250 statements, 2–15 variables and constant probabilities
// up to 0.9, with the algebraic pass off and on. The optimized block is
// fed back in too, so inputs with gapped IDs are covered.
func TestOptimizeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for k := 0; k < 300; k++ {
		cfg := synth.Config{
			Statements: 1 + rng.Intn(250),
			Variables:  2 + rng.Intn(14),
			ConstProb:  []float64{0.05, 0.15, 0.5, 0.9}[k%4],
		}
		prog := synth.MustGenerate(cfg, int64(k))
		naive, err := lang.Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("seed %d %+v", k, cfg)
		for _, opts := range []Options{{}, {Algebraic: true}} {
			requireMatchesOracle(t, naive, opts, what)
			once, _, err := OptimizeOpts(naive, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireMatchesOracle(t, once, opts, what+" (second pass)")
		}
	}
}

// FuzzOptimize parses and lowers a fuzzed source and requires
// OptimizeOpts to equal the oracle field for field, with the algebraic
// pass off and on. Seeded with FuzzCompile's inputs.
func FuzzOptimize(f *testing.F) {
	for _, seed := range []string{
		"a = b + c",
		"t = a * b\nu = t + c\nv = u % 9",
		"a = 1; b = a | a & a; c = b - -b",
		"x = (((((a)))))",
		"long0 = long1 / long2\nlong1 = long0 * long0",
		"a = 0 % 0",
		"a = a + a",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := lang.Parse(src)
		if err != nil {
			return
		}
		naive, err := lang.Compile(p)
		if err != nil {
			return
		}
		for _, opts := range []Options{{}, {Algebraic: true}} {
			requireMatchesOracle(t, naive, opts, fmt.Sprintf("%q", src))
		}
	})
}

// TestOptimizeAllocs pins the optimizer to a fixed number of allocations
// whatever the block size: its tables are sized from the input once.
func TestOptimizeAllocs(t *testing.T) {
	for _, stmts := range []int{20, 200} {
		naive, err := lang.Compile(synth.MustGenerate(synth.Config{Statements: stmts, Variables: 10}, 1))
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := Optimize(naive); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Errorf("Optimize of %d statements: %.0f allocations, want <= 8", stmts, allocs)
		}
	}
}
