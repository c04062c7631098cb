package dag

import (
	"fmt"
	"math/rand"
	"testing"

	"barriermimd/internal/ir"
	"barriermimd/internal/lang"
	"barriermimd/internal/opt"
	"barriermimd/internal/synth"
)

// requireMatchesOracle builds b with Build and with the map-based oracle
// and fails unless they agree on the error and, field for field, on the
// node layout, timings, every node's Succs, Preds and RealPreds in
// order, EdgeKind, Edges, RealEdges, Topo and Heights.
func requireMatchesOracle(t *testing.T, b *ir.Block, what string) {
	t.Helper()
	tm := ir.DefaultTimings()
	got, gerr := Build(b, tm)
	want, werr := buildOracle(b, tm)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%s: error %v, oracle %v", what, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if err := sameGraph(got, want); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

func sameGraph(g *Graph, o *oracleGraph) error {
	if g.N != o.N || g.Entry != o.Entry || g.Exit != o.Exit || len(g.Time) != len(o.Time) {
		return fmt.Errorf("layout N=%d entry=%d exit=%d nodes=%d, oracle %d %d %d %d",
			g.N, g.Entry, g.Exit, len(g.Time), o.N, o.Entry, o.Exit, len(o.Time))
	}
	for u := range o.Time {
		if g.Time[u] != o.Time[u] {
			return fmt.Errorf("node %d: time %v, oracle %v", u, g.Time[u], o.Time[u])
		}
		for _, l := range []struct {
			name      string
			got, want []int
		}{
			{"Succs", g.Succs(u), o.succs[u]},
			{"Preds", g.Preds(u), o.preds[u]},
			{"RealPreds", g.RealPreds(u), o.realPreds[u]},
		} {
			if err := sameInts(l.got, l.want); err != nil {
				return fmt.Errorf("node %d: %s %v", u, l.name, err)
			}
		}
	}
	if err := sameEdges(g.Edges(), o.edges); err != nil {
		return fmt.Errorf("Edges %v", err)
	}
	if err := sameEdges(g.RealEdges(), o.realEdges); err != nil {
		return fmt.Errorf("RealEdges %v", err)
	}
	// EdgeKind on every pair of a small graph; on a large one, on every
	// edge and the two pairs beside it.
	probe := func(u, v int) error {
		gk, gok := g.EdgeKind(u, v)
		ok, ook := o.EdgeKind(u, v)
		if gk != ok || gok != ook {
			return fmt.Errorf("EdgeKind(%d,%d) = %v,%v, oracle %v,%v", u, v, gk, gok, ok, ook)
		}
		return nil
	}
	if nodes := len(o.Time); nodes <= 120 {
		for u := 0; u < nodes; u++ {
			for v := 0; v < nodes; v++ {
				if err := probe(u, v); err != nil {
					return err
				}
			}
		}
	} else {
		for _, e := range o.edges {
			for _, v := range []int{e.To - 1, e.To, e.To + 1} {
				if err := probe(e.From, v); err != nil {
					return err
				}
			}
		}
	}
	topo, err := g.Topo()
	wantTopo, werr := o.computeTopo()
	if (err == nil) != (werr == nil) {
		return fmt.Errorf("Topo error %v, oracle %v", err, werr)
	}
	if err := sameInts(topo, wantTopo); err != nil {
		return fmt.Errorf("Topo %v", err)
	}
	h, err := g.Heights()
	wantH, werr := o.computeHeights()
	if (err == nil) != (werr == nil) {
		return fmt.Errorf("Heights error %v, oracle %v", err, werr)
	}
	if err := sameInts(h.Min, wantH.Min); err != nil {
		return fmt.Errorf("Heights.Min %v", err)
	}
	if err := sameInts(h.Max, wantH.Max); err != nil {
		return fmt.Errorf("Heights.Max %v", err)
	}
	return nil
}

func sameInts(got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%v, oracle %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			return fmt.Errorf("%v, oracle %v", got, want)
		}
	}
	return nil
}

func sameEdges(got, want []Edge) error {
	if len(got) != len(want) {
		return fmt.Errorf("has %d edges, oracle %d", len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			return fmt.Errorf("edge %d is %v, oracle %v", k, got[k], want[k])
		}
	}
	return nil
}

// lowered compiles a program and returns its naive block and its
// optimized blocks with the algebraic pass off and on.
func lowered(t *testing.T, p *lang.Program) []*ir.Block {
	t.Helper()
	naive, err := lang.Compile(p)
	if err != nil {
		return nil
	}
	blocks := []*ir.Block{naive}
	for _, opts := range []opt.Options{{}, {Algebraic: true}} {
		if b, _, err := opt.OptimizeOpts(naive, opts); err == nil {
			blocks = append(blocks, b)
		}
	}
	return blocks
}

// TestBuildMatchesOracle is the differential test over synthetic blocks
// of 1–250 statements, 2–15 variables and constant probabilities up to
// 0.9, naive and optimized with the algebraic pass off and on, plus the
// Figure 1 block, the empty block and random load/store soups.
func TestBuildMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for k := 0; k < 300; k++ {
		cfg := synth.Config{
			Statements: 1 + rng.Intn(250),
			Variables:  2 + rng.Intn(14),
			ConstProb:  []float64{0.05, 0.15, 0.5, 0.9}[k%4],
		}
		for j, b := range lowered(t, synth.MustGenerate(cfg, int64(k))) {
			requireMatchesOracle(t, b, fmt.Sprintf("seed %d %+v block %d", k, cfg, j))
		}
	}
	requireMatchesOracle(t, ir.Fig1Block(), "fig1")
	requireMatchesOracle(t, &ir.Block{}, "empty")
	for seed := int64(0); seed < 200; seed++ {
		requireMatchesOracle(t, randomBlock(seed), fmt.Sprintf("random %d", seed))
	}
}

// FuzzBuild parses and lowers a fuzzed source and requires Build to
// equal the oracle field for field on the naive block and on both
// optimized blocks. Seeded with FuzzCompile's inputs.
func FuzzBuild(f *testing.F) {
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
		for j, b := range lowered(t, p) {
			requireMatchesOracle(t, b, fmt.Sprintf("%q block %d", src, j))
		}
	})
}

// TestAdjacencyAppendCopies checks that the adjacency accessors return
// slices capped at their length, so a caller's append can never
// overwrite a neighbouring node's list.
func TestAdjacencyAppendCopies(t *testing.T) {
	g := fig1Graph(t)
	for u := 0; u+1 < len(g.Time); u++ {
		next := [][]int{
			append([]int(nil), g.Succs(u+1)...),
			append([]int(nil), g.Preds(u+1)...),
			append([]int(nil), g.RealPreds(u+1)...),
		}
		_ = append(g.Succs(u), -1)
		_ = append(g.Preds(u), -1)
		_ = append(g.RealPreds(u), -1)
		for k, l := range [][]int{g.Succs(u + 1), g.Preds(u + 1), g.RealPreds(u + 1)} {
			if err := sameInts(l, next[k]); err != nil {
				t.Fatalf("append to node %d's list %d changed node %d's: %v", u, k, u+1, err)
			}
		}
	}
}

// TestBuildAllocs pins Build to a fixed number of allocations whatever
// the block size: the CSR arrays and the scratch tables are each sized
// from the block once.
func TestBuildAllocs(t *testing.T) {
	for _, stmts := range []int{20, 200} {
		naive, err := lang.Compile(synth.MustGenerate(synth.Config{Statements: stmts, Variables: 10}, 1))
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := opt.Optimize(naive)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Build(b, ir.DefaultTimings()); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 10 {
			t.Errorf("Build of %d statements: %.0f allocations, want <= 10", stmts, allocs)
		}
	}
}
