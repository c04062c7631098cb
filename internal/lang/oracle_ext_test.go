package lang_test

import (
	"fmt"
	"math/rand"
	"testing"

	"barriermimd/internal/ir"
	"barriermimd/internal/lang"
	"barriermimd/internal/synth"
)

// synthConfigs draws n generator configurations spanning 1–250
// statements, 2–15 variables, constant probabilities up to 0.9 and one to
// four operators per statement.
func synthConfigs(n int) []synth.Config {
	rng := rand.New(rand.NewSource(30))
	cfgs := make([]synth.Config, n)
	for k := range cfgs {
		cfgs[k] = synth.Config{
			Statements:  1 + rng.Intn(250),
			Variables:   2 + rng.Intn(14),
			ConstProb:   []float64{0.05, 0.15, 0.5, 0.9}[k%4],
			ExtraOpProb: []float64{0.1, 0.35, 0.8}[k%3],
			MaxOps:      1 + rng.Intn(4),
		}
	}
	return cfgs
}

// TestCompileMatchesOracle is the differential test of the presized
// Compile against the one that grew its block tuple by tuple: same
// tuples, same IDs.
func TestCompileMatchesOracle(t *testing.T) {
	for k, cfg := range synthConfigs(300) {
		p := synth.MustGenerate(cfg, int64(k))
		got, err := lang.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := lang.CompileOracle(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBlock(got, want); err != nil {
			t.Fatalf("seed %d %+v: %v", k, cfg, err)
		}
	}
	bad := &lang.Program{Stmts: []lang.Assign{{Name: "x", RHS: lang.Binary{Op: ir.Add, L: lang.Var{Name: "a"}, R: &lang.Var{Name: "b"}}}}}
	_, gerr := lang.Compile(bad)
	_, werr := lang.CompileOracle(bad)
	if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
		t.Errorf("unknown expression: error %v, oracle %v", gerr, werr)
	}
}

func sameBlock(got, want *ir.Block) error {
	if len(got.Tuples) != len(want.Tuples) || len(got.IDs) != len(want.IDs) {
		return fmt.Errorf("%d tuples / %d ids, oracle %d / %d",
			len(got.Tuples), len(got.IDs), len(want.Tuples), len(want.IDs))
	}
	for i := range want.Tuples {
		if got.Tuples[i] != want.Tuples[i] || got.IDs[i] != want.IDs[i] {
			return fmt.Errorf("tuple %d is %+v id %d, oracle %+v id %d",
				i, got.Tuples[i], got.IDs[i], want.Tuples[i], want.IDs[i])
		}
	}
	return nil
}

// TestRenderMatchesFmtOracle checks that the append-based rendering is
// byte-identical to the fmt rendering it replaced: on synthetic programs
// of every shape, on synthetic control-flow programs, and on hand-built
// trees with negative constants, pointer nodes and missing operands.
func TestRenderMatchesFmtOracle(t *testing.T) {
	for k, cfg := range synthConfigs(200) {
		p := synth.MustGenerate(cfg, int64(k))
		if got, want := p.String(), lang.RenderOracle(p); got != want {
			t.Fatalf("seed %d %+v:\n%s\noracle:\n%s", k, cfg, got, want)
		}
	}
	for k := 0; k < 200; k++ {
		cfg := synth.CFConfig{
			Statements: 1 + k%60,
			Variables:  2 + k%14,
			IfProb:     []float64{0.15, 0.4}[k%2],
			WhileProb:  []float64{0.08, 0.3}[k%3%2],
			MaxDepth:   1 + k%4,
		}
		p := synth.MustGenerateCF(cfg, int64(k))
		if got, want := p.String(), lang.RenderCFOracle(p); got != want {
			t.Fatalf("CF seed %d %+v:\n%s\noracle:\n%s", k, cfg, got, want)
		}
	}
	a, b := lang.Var{Name: "a"}, lang.Const{Value: -9223372036854775808}
	for _, e := range []lang.Expr{
		b,
		lang.Binary{Op: ir.Sub, L: a, R: lang.Const{Value: -3}},
		lang.Binary{Op: ir.Mod, L: &a, R: &lang.Binary{Op: ir.Or, L: b, R: a}},
		lang.Binary{Op: ir.And, L: a},
	} {
		if got, want := e.String(), lang.ExprOracle(e); got != want {
			t.Errorf("%#v renders %q, oracle %q", e, got, want)
		}
	}
	cf := &lang.CFProgram{Stmts: []lang.Stmt{
		lang.Assign{Name: "x"},
		&lang.Assign{Name: "y", RHS: a},
		lang.If{Cond: a, Then: []lang.Stmt{lang.While{Cond: b, Body: []lang.Stmt{lang.If{Then: nil, Else: []lang.Stmt{}}}}}},
	}}
	if got, want := cf.String(), lang.RenderCFOracle(cf); got != want {
		t.Errorf("hand-built CF program:\n%s\noracle:\n%s", got, want)
	}
}
