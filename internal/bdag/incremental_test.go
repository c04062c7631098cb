package bdag

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"barriermimd/internal/ir"
)

// timelineModel is the reference model for the incremental mutations: each
// processor is an alternating sequence of region timings and barrier
// nodes, starting at the initial barrier and ending with a trailing
// region. rebuild() derives a fresh graph from it with the construction
// API, which is the oracle the incrementally patched graph must match
// after every mutation.
type timelineModel struct {
	nprocs int
	// barriers, in creation order: barriers[i] holds the participants of
	// node i+1 (node 0 is Initial).
	barriers [][]int
	// seqs[p] is processor p's sequence of (region timing, barrier node)
	// steps followed by a trailing region timing.
	seqs  [][]step
	tails []ir.Timing
	// parts caps the participants of one insertion (0 = any number), and
	// recent, when > 0, lands each split within the last recent regions
	// of its processor, as the scheduler's insertions do; together they
	// keep long runs from being rejected as cyclic.
	parts, recent int
}

type step struct {
	t   ir.Timing
	bar int
}

func newTimelineModel(nprocs int) *timelineModel {
	return &timelineModel{
		nprocs: nprocs,
		seqs:   make([][]step, nprocs),
		tails:  make([]ir.Timing, nprocs),
	}
}

func allProcs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func (m *timelineModel) rebuild() *Graph { return m.rebuildInto(nil) }

// rebuildInto is rebuild into arena, which is Reset first; a nil arena
// gets a fresh graph.
func (m *timelineModel) rebuildInto(arena *Graph) *Graph {
	g := arena
	if g == nil {
		g = New(allProcs(m.nprocs))
	} else {
		g.Reset(allProcs(m.nprocs))
	}
	for _, parts := range m.barriers {
		g.AddBarrier(parts)
	}
	for p := range m.seqs {
		prev := Initial
		for _, st := range m.seqs[p] {
			g.AddRegion(prev, st.bar, st.t)
			prev = st.bar
		}
	}
	return g
}

// randTiming returns a timing with Min <= Max.
func randTiming(rng *rand.Rand, lo, hi int) ir.Timing {
	a, b := lo+rng.Intn(hi-lo+1), lo+rng.Intn(hi-lo+1)
	if a > b {
		a, b = b, a
	}
	return ir.Timing{Min: a, Max: b}
}

// splitTiming divides t into two timings that sum to it componentwise.
func splitTiming(rng *rand.Rand, t ir.Timing) (ir.Timing, ir.Timing) {
	a := ir.Timing{Min: rng.Intn(t.Min + 1), Max: rng.Intn(t.Max + 1)}
	return a, ir.Timing{Min: t.Min - a.Min, Max: t.Max - a.Max}
}

// mutate applies one random barrier insertion to both the model and the
// incrementally maintained graph, returning the inserted participants and
// splits, or ok == false if the placement was rejected as cyclic.
func (m *timelineModel) mutate(rng *rand.Rand, g *Graph) (parts []int, splits []Split, ok bool) {
	k := 1 + rng.Intn(m.nprocs)
	if m.parts > 0 {
		k = 1 + rng.Intn(m.parts)
	}
	procs := append([]int(nil), allProcs(m.nprocs)...)
	rng.Shuffle(len(procs), func(a, b int) { procs[a], procs[b] = procs[b], procs[a] })
	procs = procs[:k]

	// Choose an insertion point per processor: after step pos-1, i.e.
	// splitting the region that follows barrier pos-1 (or the trailing
	// region when pos == len(seq)).
	type plan struct {
		p, pos         int
		toNew, fromNew ir.Timing
	}
	var plans []plan
	for _, p := range procs {
		pos := rng.Intn(len(m.seqs[p]) + 1)
		if m.recent > 0 {
			pos = len(m.seqs[p]) - rng.Intn(min(m.recent, len(m.seqs[p])+1))
		}
		prev := Initial
		if pos > 0 {
			prev = m.seqs[p][pos-1].bar
		}
		if pos == len(m.seqs[p]) {
			toNew, rest := splitTiming(rng, m.tails[p])
			plans = append(plans, plan{p, pos, toNew, rest})
			splits = append(splits, Split{Prev: prev, Next: NoBarrier, ToNew: toNew})
			continue
		}
		st := m.seqs[p][pos]
		toNew, fromNew := splitTiming(rng, st.t)
		plans = append(plans, plan{p, pos, toNew, fromNew})
		splits = append(splits, Split{Prev: prev, Next: st.bar, ToNew: toNew, FromNew: fromNew})
	}

	if g.WouldCycle(splits) {
		return nil, nil, false
	}
	sortedProcs := append([]int(nil), procs...)
	for i := range sortedProcs {
		for j := i + 1; j < len(sortedProcs); j++ {
			if sortedProcs[j] < sortedProcs[i] {
				sortedProcs[i], sortedProcs[j] = sortedProcs[j], sortedProcs[i]
			}
		}
	}
	w := g.InsertBarrier(sortedProcs, splits)

	m.barriers = append(m.barriers, sortedProcs)
	for _, pl := range plans {
		if pl.pos == len(m.seqs[pl.p]) {
			m.seqs[pl.p] = append(m.seqs[pl.p], step{t: pl.toNew, bar: w})
			m.tails[pl.p] = pl.fromNew
			continue
		}
		next := m.seqs[pl.p][pl.pos].bar
		rest := append([]step(nil), m.seqs[pl.p][pl.pos+1:]...)
		m.seqs[pl.p] = append(m.seqs[pl.p][:pl.pos],
			append([]step{{t: pl.toNew, bar: w}, {t: pl.fromNew, bar: next}}, rest...)...)
	}
	return sortedProcs, splits, true
}

// diffGraphs compares every observable of the two graphs.
func diffGraphs(got, want *Graph) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("node count %d vs %d", got.Len(), want.Len())
	}
	n := want.Len()
	for b := 0; b < n; b++ {
		gp, wp := got.Participants(b), want.Participants(b)
		if !slices.Equal(gp, wp) {
			return fmt.Errorf("node %d participants %v vs %v", b, gp, wp)
		}
	}
	ge, we := got.Edges(), want.Edges()
	if !slices.Equal(ge, we) {
		return fmt.Errorf("edges %v vs %v", ge, we)
	}
	for _, e := range we {
		gt, gok := got.EdgeTiming(e.From, e.To)
		wt, wok := want.EdgeTiming(e.From, e.To)
		if gok != wok || gt != wt {
			return fmt.Errorf("edge %v timing %v/%v vs %v/%v", e, gt, gok, wt, wok)
		}
	}
	if err := checkTopo(got); err != nil {
		return err
	}
	gd, gerr := got.Dominators()
	wd, werr := want.Dominators()
	if (gerr == nil) != (werr == nil) {
		return fmt.Errorf("dominator error %v vs %v", gerr, werr)
	}
	if gerr == nil && !slices.Equal(gd, wd) {
		return fmt.Errorf("dominators %v vs %v", gd, wd)
	}
	gmin, gmax, gerr := got.FireWindows()
	wmin, wmax, werr := want.FireWindows()
	if (gerr == nil) != (werr == nil) {
		return fmt.Errorf("fire-window error %v vs %v", gerr, werr)
	}
	if gerr == nil && (!slices.Equal(gmin, wmin) || !slices.Equal(gmax, wmax)) {
		return fmt.Errorf("fire windows [%v %v] vs [%v %v]", gmin, gmax, wmin, wmax)
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if got.HasPath(u, v) != want.HasPath(u, v) {
				return fmt.Errorf("HasPath(%d,%d) = %v vs %v", u, v, got.HasPath(u, v), want.HasPath(u, v))
			}
		}
		for _, useMax := range []bool{false, true} {
			gl, gerr := got.LongestFrom(u, useMax)
			wl, werr := want.LongestFrom(u, useMax)
			if (gerr == nil) != (werr == nil) || !slices.Equal(gl, wl) {
				return fmt.Errorf("LongestFrom(%d,%v) %v vs %v", u, useMax, gl, wl)
			}
		}
	}
	return nil
}

// checkTopo reports whether g's cached order is a topological order of
// its current edges.
func checkTopo(g *Graph) error {
	order, err := g.Topo()
	if err != nil {
		return err
	}
	if len(order) != g.Len() {
		return fmt.Errorf("order has %d of %d barriers", len(order), g.Len())
	}
	pos := make([]int, g.Len())
	for i := range pos {
		pos[i] = -1
	}
	for k, v := range order {
		if pos[v] >= 0 {
			return fmt.Errorf("barrier %d twice in order %v", v, order)
		}
		pos[v] = k
	}
	for _, e := range g.Edges() {
		if pos[e.From] > pos[e.To] {
			return fmt.Errorf("edge %v runs backwards in order %v", e, order)
		}
	}
	return nil
}

// warm issues queries on random pairs so the memo holds rows a following
// mutation must either keep correctly or drop.
func warm(rng *rand.Rand, g *Graph) {
	n := g.Len()
	_, _ = g.Topo()
	_, _ = g.Dominators()
	for q := 0; q < 3*n; q++ {
		u, v := rng.Intn(n), rng.Intn(n)
		g.HasPath(u, v)
		_, _ = g.LongestFrom(u, rng.Intn(2) == 0)
		if q%4 == 0 {
			g.PathsBetween(u, v, 8)
		}
	}
}

// TestIncrementalMatchesRebuild drives randomized mutation sequences
// through InsertBarrier with a warm memo and asserts after every mutation
// that the patched graph is observationally identical — nodes, edges,
// timings, reachability, longest paths, dominators, fire windows — to a
// graph rebuilt from scratch by the construction API. The large runs
// grow past 64 and 128 barriers, so patched reachability rows cross
// bitset words, on up to 16 processors; they warm every row before each
// mutation so every row is patched, not recomputed.
func TestIncrementalMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := checkIncremental(t, rng, newTimelineModel(2+rng.Intn(5)), nil, 25, warm)
			if g.MaintStats().KeptRows == 0 {
				t.Error("incremental maintenance never kept a row")
			}
		})
	}
	for _, tc := range []struct{ seed, procs, steps, want int }{
		{100, 4, 160, 64},
		{101, 8, 260, 128},
		{102, 16, 240, 128},
	} {
		tc := tc
		t.Run(fmt.Sprintf("large-seed%d-p%d", tc.seed, tc.procs), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.seed)))
			m := newTimelineModel(tc.procs)
			m.parts, m.recent = 3, 4
			g := checkIncremental(t, rng, m, nil, tc.steps, warmAll)
			if g.Len() <= tc.want {
				t.Errorf("graph reached only %d barriers, want > %d", g.Len(), tc.want)
			}
		})
	}
	// Reset parks the rows of a large generation for reuse, with their
	// members past the new rows' length still set; growing such a row
	// across a bitset word must not resurrect them.
	t.Run("reset-arena", func(t *testing.T) {
		rng := rand.New(rand.NewSource(103))
		big := newTimelineModel(8)
		big.parts, big.recent = 3, 4
		g := checkIncremental(t, rng, big, nil, 160, warmAll)
		small := newTimelineModel(8)
		small.parts, small.recent = 3, 4
		if g = checkIncremental(t, rng, small, g, 160, warmAll); g.Len() <= 64 {
			t.Errorf("second generation reached only %d barriers, want > 64", g.Len())
		}
	})
}

// checkIncremental builds the model's graph (into arena when non-nil),
// runs up to steps random insertions, calling warmUp before each one, and
// compares the patched graph with a rebuild after every insertion.
func checkIncremental(t *testing.T, rng *rand.Rand, m *timelineModel, arena *Graph, steps int, warmUp func(*rand.Rand, *Graph)) *Graph {
	t.Helper()
	for p := range m.tails {
		m.tails[p] = randTiming(rng, 0, 12)
	}
	g := m.rebuildInto(arena)
	for step := 0; step < steps; step++ {
		warmUp(rng, g)
		if _, _, ok := m.mutate(rng, g); !ok {
			continue
		}
		if err := diffGraphs(g, m.rebuild()); err != nil {
			t.Fatalf("step %d (%d barriers): %v", step, g.Len(), err)
		}
	}
	if g.MaintStats().Patches == 0 {
		t.Fatal("no patches recorded")
	}
	return g
}

// warmAll caches the order, the dominators, and the reachability and both
// longest-path rows of every barrier, plus one path enumeration.
func warmAll(rng *rand.Rand, g *Graph) {
	n := g.Len()
	_, _ = g.Topo()
	_, _ = g.Dominators()
	warmRows(g, n)
	g.PathsBetween(Initial, rng.Intn(n), 4)
}

// warmRows queries the reachability and both longest-path rows of
// barriers [0, n).
func warmRows(g *Graph, n int) {
	for u := 0; u < n; u++ {
		g.HasPath(u, (u+1)%g.Len())
		_, _ = g.LongestFrom(u, false)
		_, _ = g.LongestFrom(u, true)
	}
}

// TestAddBarrierAfter checks the trailing-region convenience wrapper.
func TestAddBarrierAfter(t *testing.T) {
	g := New([]int{0, 1})
	w := g.AddBarrierAfter(Initial, []int{0, 1}, ir.Timing{Min: 2, Max: 5})
	if got, ok := g.EdgeTiming(Initial, w); !ok || got != (ir.Timing{Min: 2, Max: 5}) {
		t.Fatalf("edge timing = %v, %v", got, ok)
	}
	w2 := g.AddBarrierAfter(w, []int{0}, ir.Timing{Min: 1, Max: 1})
	if !g.HasPath(Initial, w2) {
		t.Fatal("no path initial -> w2")
	}
	idom, err := g.Dominators()
	if err != nil {
		t.Fatal(err)
	}
	if idom[w2] != w || idom[w] != Initial {
		t.Fatalf("idom = %v", idom)
	}
}

// TestWouldCycleDetectsInversion builds two barriers ordered a -> b and
// asks WouldCycle about an insertion that would route a region from after
// b back to before a.
func TestWouldCycleDetectsInversion(t *testing.T) {
	g := New([]int{0, 1})
	a := g.AddBarrierAfter(Initial, []int{0}, ir.Timing{Min: 1, Max: 1})
	b := g.AddBarrierAfter(a, []int{0}, ir.Timing{Min: 1, Max: 1})
	// Splitting (Initial, a) and a region below b with one barrier would
	// need b to reach the new node and the new node to reach a: cyclic.
	splits := []Split{
		{Prev: Initial, Next: a, ToNew: ir.Timing{}, FromNew: ir.Timing{Min: 1, Max: 1}},
		{Prev: b, Next: NoBarrier, ToNew: ir.Timing{}},
	}
	if !g.WouldCycle(splits) {
		t.Fatal("inverted placement not flagged")
	}
	ok := []Split{
		{Prev: b, Next: NoBarrier, ToNew: ir.Timing{}},
		{Prev: b, Next: NoBarrier, ToNew: ir.Timing{}},
	}
	if g.WouldCycle(ok) {
		t.Fatal("forward placement flagged as cyclic")
	}
}
