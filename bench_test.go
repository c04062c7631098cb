package barriermimd

// One benchmark per reproduced table/figure (see DESIGN.md §4), plus
// micro-benchmarks for the scheduler's hot paths. Each table/figure bench
// exercises the exact pipeline its experiment uses, at a small population
// per iteration; run cmd/bmexp for paper-scale populations.

import (
	"fmt"
	"testing"

	"barriermimd/internal/bdag"
	"barriermimd/internal/cfg"
	"barriermimd/internal/core"
	"barriermimd/internal/dag"
	"barriermimd/internal/exp"
	"barriermimd/internal/ir"
	"barriermimd/internal/lang"
	"barriermimd/internal/machine"
	"barriermimd/internal/mimd"
	"barriermimd/internal/opt"
	"barriermimd/internal/schedcache"
	"barriermimd/internal/synth"
	"barriermimd/internal/vliw"
)

func benchGraph(b *testing.B, stmts, vars int, seed int64) *dag.Graph {
	b.Helper()
	prog, err := synth.Generate(synth.Config{Statements: stmts, Variables: vars}, seed)
	if err != nil {
		b.Fatal(err)
	}
	naive, err := lang.Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	optb, _, err := opt.Optimize(naive)
	if err != nil {
		b.Fatal(err)
	}
	g, err := dag.Build(optb, ir.DefaultTimings())
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func runExp(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(name, exp.Config{Runs: 3, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Generator measures the synthetic benchmark generator that
// realizes the Table 1 operator mix.
func BenchmarkTable1Generator(b *testing.B) { runExp(b, "table1") }

// BenchmarkFig1Example measures the fixed example pipeline of Figures 1/2:
// DAG construction, heights and finish times on the published block.
func BenchmarkFig1Example(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := dag.Build(ir.Fig1Block(), ir.DefaultTimings())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.Heights(); err != nil {
			b.Fatal(err)
		}
		if _, err := g.FinishTimes(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14Population measures the figure 14 population pipeline
// (in-band benchmark generation plus scheduling on 8 processors).
func BenchmarkFig14Population(b *testing.B) { runExp(b, "fig14") }

// BenchmarkFig15Statements measures the statements sweep of figure 15.
func BenchmarkFig15Statements(b *testing.B) { runExp(b, "fig15") }

// BenchmarkFig16Variables measures the variables sweep of figure 16.
func BenchmarkFig16Variables(b *testing.B) { runExp(b, "fig16") }

// BenchmarkFig17Processors measures the processors sweep of figure 17.
func BenchmarkFig17Processors(b *testing.B) { runExp(b, "fig17") }

// BenchmarkFig18VLIW measures the VLIW-vs-barrier comparison of figure 18.
func BenchmarkFig18VLIW(b *testing.B) { runExp(b, "fig18") }

// BenchmarkMergeAblation measures the section 4.4.3 merging experiment.
func BenchmarkMergeAblation(b *testing.B) { runExp(b, "merge") }

// BenchmarkHeuristicAblations measures the section 5.4 variants.
func BenchmarkHeuristicAblations(b *testing.B) { runExp(b, "heuristics") }

// BenchmarkOptimalInsertion measures the section 4.4.2 comparison.
func BenchmarkOptimalInsertion(b *testing.B) { runExp(b, "optimal") }

// --- hot-path micro-benchmarks ---

// BenchmarkPipelineCompile measures source-to-optimized-DAG lowering.
func BenchmarkPipelineCompile(b *testing.B) {
	prog, err := synth.Generate(synth.Config{Statements: 60, Variables: 10}, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naive, err := lang.Compile(prog)
		if err != nil {
			b.Fatal(err)
		}
		optb, _, err := opt.Optimize(naive)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dag.Build(optb, ir.DefaultTimings()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleSBM measures barrier MIMD scheduling of a 60-statement
// block on 8 processors (conservative insertion, merging).
func BenchmarkScheduleSBM(b *testing.B) {
	g := benchGraph(b, 60, 10, 1)
	opts := core.DefaultOptions(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ScheduleDAG(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleOptimal measures scheduling with the section 4.4.2
// optimal insertion algorithm.
func BenchmarkScheduleOptimal(b *testing.B) {
	g := benchGraph(b, 60, 10, 1)
	opts := core.DefaultOptions(8)
	opts.Insertion = core.Optimal
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ScheduleDAG(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateSBM measures one randomized execution of a compiled
// plan plus its dependence check.
func BenchmarkSimulateSBM(b *testing.B) {
	g := benchGraph(b, 60, 10, 1)
	s, err := core.ScheduleDAG(g, core.DefaultOptions(8))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := machine.Compile(s, core.SBM)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := plan.Run(machine.Config{Policy: machine.RandomTimes, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if err := r.CheckDependences(); err != nil {
			b.Fatal(err)
		}
		r.Release()
	}
}

// BenchmarkSimulateSweep measures the compiled-plan sweep path: one
// Compile amortized over per-seed Plan.Run executions with recycled
// scratch, for both machine kinds.
func BenchmarkSimulateSweep(b *testing.B) {
	g := benchGraph(b, 60, 10, 1)
	s, err := core.ScheduleDAG(g, core.DefaultOptions(8))
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []core.MachineKind{core.SBM, core.DBM} {
		b.Run(kind.String(), func(b *testing.B) {
			plan, err := machine.Compile(s, kind)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := plan.Run(machine.Config{Policy: machine.RandomTimes, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				r.Release()
			}
		})
	}
}

// BenchmarkSimulateLanes measures the simulator kernel at several lane
// widths on the standard synthetic workload. Each scalar-W iteration
// runs W one-lane Plan.Run calls; each lanes-W iteration runs one
// RunMany over the same W seeds, so the ns/op ratio at equal W is the
// batching speedup (also exposed per seed via the ns/seed metric for
// cross-width comparison). The allocs/op column pins the warm path at
// zero.
func BenchmarkSimulateLanes(b *testing.B) {
	g := benchGraph(b, 60, 10, 1)
	s, err := core.ScheduleDAG(g, core.DefaultOptions(8))
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []core.MachineKind{core.SBM, core.DBM} {
		plan, err := machine.Compile(s, kind)
		if err != nil {
			b.Fatal(err)
		}
		cfg := machine.Config{Policy: machine.RandomTimes}
		b.Run(kind.String()+"/scalar-32", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for l := 0; l < 32; l++ {
					cfg.Seed = int64(i*32 + l)
					r, err := plan.Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					r.Release()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*32), "ns/seed")
		})
		for _, lanes := range []int{8, 32, 128} {
			seeds := make([]int64, lanes)
			b.Run(fmt.Sprintf("%v/lanes-%d", kind, lanes), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for l := range seeds {
						seeds[l] = int64(i*lanes + l)
					}
					br, err := plan.RunMany(cfg, seeds)
					if err != nil {
						b.Fatal(err)
					}
					br.Release()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes), "ns/seed")
			})
		}
	}
}

// BenchmarkCompilePlan measures the one-time schedule-to-plan lowering
// that the sweep benchmarks amortize.
func BenchmarkCompilePlan(b *testing.B) {
	g := benchGraph(b, 60, 10, 1)
	s, err := core.ScheduleDAG(g, core.DefaultOptions(8))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := machine.Compile(s, core.SBM); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVLIWSchedule measures the section 6 baseline scheduler.
func BenchmarkVLIWSchedule(b *testing.B) {
	g := benchGraph(b, 60, 10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vliw.Schedule(g, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeights measures node labeling (section 4.1).
func BenchmarkHeights(b *testing.B) {
	g := benchGraph(b, 100, 10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Heights(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertBarrier measures incremental barrier insertion into a
// warm barrier dag (patch + selective memo invalidation), the scheduler's
// hot mutation.
func BenchmarkInsertBarrier(b *testing.B) {
	build := func() (*bdag.Graph, []int) {
		g := bdag.New([]int{0, 1, 2, 3})
		tips := make([]int, 4)
		for p := 0; p < 4; p++ {
			tips[p] = g.AddBarrierAfter(bdag.Initial, []int{p}, ir.Timing{Min: 2 + p, Max: 5 + p})
		}
		return g, tips
	}
	g, tips := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			b.StopTimer()
			g, tips = build() // bound graph growth
			b.StartTimer()
		}
		p, q := i%4, (i+1)%4
		// Keep the memo warm so each insertion exercises selective
		// invalidation, not cold recomputation.
		g.HasPath(bdag.Initial, tips[p])
		if _, err := g.Dominators(); err != nil {
			b.Fatal(err)
		}
		w := g.InsertBarrier([]int{p, q}, []bdag.Split{
			{Prev: tips[p], Next: bdag.NoBarrier, ToNew: ir.Timing{Min: 1, Max: 3}},
			{Prev: tips[q], Next: bdag.NoBarrier, ToNew: ir.Timing{Min: 2, Max: 4}},
		})
		tips[p], tips[q] = w, w
	}
}

// BenchmarkEdgeKindLookup measures dependence-edge kind queries, the inner
// check of serialization and lookahead decisions (binary search over
// sorted adjacency).
func BenchmarkEdgeKindLookup(b *testing.B) {
	g := benchGraph(b, 100, 10, 1)
	edges := g.Edges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		if _, ok := g.EdgeKind(e.From, e.To); !ok {
			b.Fatal("edge vanished")
		}
		if _, ok := g.EdgeKind(e.To, e.From); ok && e.From != e.To {
			b.Fatal("reverse edge present")
		}
	}
}

// BenchmarkDeltaRange measures region time sums over schedule timelines
// (prefix-sum differences behind the scheduler's δ quantities).
func BenchmarkDeltaRange(b *testing.B) {
	g := benchGraph(b, 60, 10, 1)
	s, err := core.ScheduleDAG(g, core.DefaultOptions(8))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := i % len(s.Procs)
		idx := i % (len(s.Procs[p]) + 1)
		s.RegionDelta(p, idx, i%2 == 0)
	}
}

// BenchmarkMIMDComparison measures the conventional-MIMD extension
// experiment (directed syncs + transitive reduction vs barriers).
func BenchmarkMIMDComparison(b *testing.B) { runExp(b, "mimd") }

// BenchmarkBarrierCost measures the barrier-latency sensitivity sweep.
func BenchmarkBarrierCost(b *testing.B) { runExp(b, "barriercost") }

// BenchmarkControlFlowPipeline measures the control-flow extension: lower,
// schedule per block, and execute a loop-and-branch program end to end.
func BenchmarkControlFlowPipeline(b *testing.B) {
	prog, err := synth.GenerateCF(synth.CFConfig{Statements: 30, Variables: 8}, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf, err := cfg.Lower(prog)
		if err != nil {
			b.Fatal(err)
		}
		if err := cf.Compile(core.DefaultOptions(4), ir.DefaultTimings()); err != nil {
			b.Fatal(err)
		}
		if _, err := cf.Run(nil, cfg.RunConfig{Policy: machine.RandomTimes, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransitiveReduction measures Shaffer-style sync reduction.
func BenchmarkTransitiveReduction(b *testing.B) {
	g := benchGraph(b, 80, 10, 1)
	s, err := core.ScheduleDAG(g, core.DefaultOptions(8))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mimd.NewPlan(s, true)
	}
}

// BenchmarkStudy measures the section 5 whole-study grid sweep.
func BenchmarkStudy(b *testing.B) { runExp(b, "study") }

// batchGraphs builds a duplicate-heavy batch: uniques distinct graphs,
// each repeated copies times (so (copies-1)/copies of the items are
// duplicates), interleaved so duplicates are spread across the batch.
func batchGraphs(b *testing.B, uniques, copies int) []*dag.Graph {
	b.Helper()
	base := make([]*dag.Graph, uniques)
	for i := range base {
		base[i] = benchGraph(b, 40, 8, int64(1000+i))
	}
	gs := make([]*dag.Graph, 0, uniques*copies)
	for c := 0; c < copies; c++ {
		for i := range base {
			gs = append(gs, base[i])
		}
	}
	return gs
}

// BenchmarkScheduleBatchUncached measures a duplicate-heavy batch (16
// distinct 40-statement blocks, 8 copies each = 87.5% duplicates) through
// the plain per-item path. Baseline for BenchmarkScheduleBatchCached.
func BenchmarkScheduleBatchUncached(b *testing.B) {
	gs := batchGraphs(b, 16, 8)
	opts := core.DefaultOptions(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ScheduleBatch(gs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleBatchCached runs the identical duplicate-heavy batch
// with a fresh content-addressed cache per iteration: each distinct DAG
// schedules once, the other 87.5% of items are cache hits.
func BenchmarkScheduleBatchCached(b *testing.B) {
	gs := batchGraphs(b, 16, 8)
	opts := core.DefaultOptions(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Cache = schedcache.New(0)
		if _, err := core.ScheduleBatch(gs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleCacheHit measures the warm hit path of the schedule
// cache with a pointer-identical graph: fingerprint memo + shard lookup.
// The allocs/op column is the pinned 0-allocation guarantee.
func BenchmarkScheduleCacheHit(b *testing.B) {
	g := benchGraph(b, 60, 10, 1)
	opts := core.DefaultOptions(8)
	c := schedcache.New(0)
	if _, err := c.Schedule(g, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Schedule(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFingerprint measures one cold canonical-fingerprint
// computation (WL refinement + canonical hash) on a 60-statement DAG.
func BenchmarkFingerprint(b *testing.B) {
	blocks := make([]*dag.Graph, 64)
	for i := range blocks {
		blocks[i] = benchGraph(b, 60, 10, int64(2000+i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// MemoFingerprint caches per graph object; rotate so most calls
		// in a small-N run are cold.
		schedcache.FingerprintOf(blocks[i%len(blocks)])
	}
}

// BenchmarkCompileCFCached measures control-flow compilation of a
// loop-heavy program whose lowered blocks repeat, with and without the
// schedule cache deduplicating identical blocks.
func BenchmarkCompileCFCached(b *testing.B) {
	src := `s = 0
i = 32
while i {
	s = s + i * i
	i = i - 1
}
j = 32
while j {
	s = s + j * j
	j = j - 1
}
k = 32
while k {
	s = s + k * k
	k = k - 1
}`
	prog := lang.MustParseCF(src)
	for _, cached := range []bool{false, true} {
		name := "uncached"
		if cached {
			name = "cached"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lowered, err := cfg.Lower(prog)
				if err != nil {
					b.Fatal(err)
				}
				lowered.Simplify()
				opts := core.DefaultOptions(8)
				if cached {
					opts.Cache = schedcache.New(0)
				}
				if err := lowered.Compile(opts, ir.DefaultTimings()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
