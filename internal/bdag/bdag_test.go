package bdag

import (
	"testing"

	"barriermimd/internal/ir"
)

// fig10 builds a barrier embedding shaped like the paper's Figures 9/10:
//
//	b0 (all) → b1 {0,1}
//	b0 → b2 {2,3} → b3 {3,4} → b4 {2,4}
//	b2 → b4 (processor 2's chain)
func fig10() *Graph {
	g := New([]int{0, 1, 2, 3, 4})
	b1 := g.AddBarrier([]int{0, 1})
	b2 := g.AddBarrier([]int{2, 3})
	b3 := g.AddBarrier([]int{3, 4})
	b4 := g.AddBarrier([]int{2, 4})
	g.AddRegion(Initial, b1, ir.Timing{Min: 1, Max: 2})
	g.AddRegion(Initial, b2, ir.Timing{Min: 2, Max: 3})
	g.AddRegion(b2, b3, ir.Timing{Min: 1, Max: 5})
	g.AddRegion(b3, b4, ir.Timing{Min: 2, Max: 2})
	g.AddRegion(b2, b4, ir.Timing{Min: 1, Max: 1})
	return g
}

func TestNewHasInitialBarrier(t *testing.T) {
	g := New([]int{0, 1, 2})
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
	p := g.Participants(Initial)
	if len(p) != 3 || p[0] != 0 || p[2] != 2 {
		t.Errorf("Participants = %v", p)
	}
}

func TestParticipantsSorted(t *testing.T) {
	g := New([]int{3, 1, 2})
	p := g.Participants(Initial)
	if p[0] != 1 || p[1] != 2 || p[2] != 3 {
		t.Errorf("Participants not sorted: %v", p)
	}
}

func TestAddRegionAggregatesFigure13Rule(t *testing.T) {
	// Figure 13: PE0 takes [5,7] and PE1 takes [4,6] between x and y; the
	// edge must carry [5,7]: max of mins, max of maxes.
	g := New([]int{0, 1, 2})
	y := g.AddBarrier([]int{0, 1})
	g.AddRegion(Initial, y, ir.Timing{Min: 5, Max: 7})
	g.AddRegion(Initial, y, ir.Timing{Min: 4, Max: 6})
	tm, ok := g.EdgeTiming(Initial, y)
	if !ok {
		t.Fatal("edge missing")
	}
	if tm != (ir.Timing{Min: 5, Max: 7}) {
		t.Errorf("edge timing = %v, want [5,7]", tm)
	}
	// A slower second contribution raises both components.
	g.AddRegion(Initial, y, ir.Timing{Min: 6, Max: 9})
	tm, _ = g.EdgeTiming(Initial, y)
	if tm != (ir.Timing{Min: 6, Max: 9}) {
		t.Errorf("edge timing = %v, want [6,9]", tm)
	}
}

func TestAddRegionPanicsOnSelfEdge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on self edge")
		}
	}()
	g := New([]int{0})
	g.AddRegion(Initial, Initial, ir.Timing{Min: 1, Max: 1})
}

func TestHasPathAndOrdered(t *testing.T) {
	g := fig10()
	if !g.HasPath(Initial, 4) {
		t.Error("no path b0→b4")
	}
	if g.HasPath(4, Initial) {
		t.Error("reverse path b4→b0")
	}
	if !g.HasPath(2, 2) {
		t.Error("HasPath(v,v) must hold")
	}
	if g.Ordered(1, 3) { // b1 and b3 are concurrent
		t.Error("b1 and b3 should be unordered")
	}
	if !g.Ordered(2, 4) {
		t.Error("b2 and b4 should be ordered")
	}
}

func TestTopo(t *testing.T) {
	g := fig10()
	order, err := g.Topo()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for i, b := range order {
		pos[b] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("topo violates edge %v", e)
		}
	}
	if order[0] != Initial {
		t.Errorf("initial barrier not first: %v", order)
	}
}

func TestDominators(t *testing.T) {
	g := fig10()
	idom, err := g.Dominators()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{Initial, Initial, Initial, 2, 2}
	for b, w := range want {
		if idom[b] != w {
			t.Errorf("idom[%d] = %d, want %d", b, idom[b], w)
		}
	}
}

func TestCommonDominator(t *testing.T) {
	g := fig10()
	cases := []struct{ a, b, want int }{
		{1, 3, Initial},
		{3, 4, 2},
		{2, 3, 2}, // b2 dominates b3
		{4, 4, 4}, // every barrier dominates itself
		{Initial, 3, Initial},
	}
	for _, c := range cases {
		got, err := g.CommonDominator(c.a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("CommonDominator(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDominates(t *testing.T) {
	g := fig10()
	cases := []struct {
		x, y int
		want bool
	}{
		{Initial, 4, true}, // the initial barrier dominates everything
		{2, 3, true},
		{2, 4, true},
		{3, 4, false}, // b2→b4 bypasses b3
		{4, 4, true},  // self-domination
		{1, 3, false},
	}
	for _, c := range cases {
		got, err := g.Dominates(c.x, c.y)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Dominates(%d,%d) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestLongestFrom(t *testing.T) {
	g := fig10()
	max, err := g.LongestFrom(Initial, true)
	if err != nil {
		t.Fatal(err)
	}
	// b4 via b2→b3→b4: 3+5+2 = 10; via b2→b4: 3+1 = 4.
	if max[4] != 10 {
		t.Errorf("max dist to b4 = %d, want 10", max[4])
	}
	min, err := g.LongestFrom(Initial, false)
	if err != nil {
		t.Fatal(err)
	}
	// min: via b2→b3→b4: 2+1+2 = 5; via b2→b4: 2+1 = 3 → longest is 5.
	if min[4] != 5 {
		t.Errorf("min dist to b4 = %d, want 5", min[4])
	}
	// Unreachable from b1.
	d, err := g.LongestFrom(1, true)
	if err != nil {
		t.Fatal(err)
	}
	if d[4] != Unreachable {
		t.Errorf("dist b1→b4 = %d, want Unreachable", d[4])
	}
	if d[1] != 0 {
		t.Errorf("dist b1→b1 = %d, want 0", d[1])
	}
}

func TestFireWindows(t *testing.T) {
	g := fig10()
	min, max, err := g.FireWindows()
	if err != nil {
		t.Fatal(err)
	}
	if min[Initial] != 0 || max[Initial] != 0 {
		t.Error("initial barrier must fire at 0")
	}
	for b := 0; b < g.Len(); b++ {
		if min[b] > max[b] {
			t.Errorf("barrier %d window inverted: [%d,%d]", b, min[b], max[b])
		}
	}
	if min[3] != 3 || max[3] != 8 {
		t.Errorf("b3 window = [%d,%d], want [3,8]", min[3], max[3])
	}
}

func TestPathsBetweenOrderedByMaxLen(t *testing.T) {
	g := fig10()
	paths := g.PathsBetween(2, 4, 0)
	if len(paths) != 2 {
		t.Fatalf("paths b2→b4 = %d, want 2", len(paths))
	}
	if g.MaxLen(paths[0]) < g.MaxLen(paths[1]) {
		t.Error("paths not sorted by decreasing max length")
	}
	if g.MaxLen(paths[0]) != 7 { // b2→b3→b4 = 5+2
		t.Errorf("longest path len = %d, want 7", g.MaxLen(paths[0]))
	}
	if g.MaxLen(paths[1]) != 1 { // b2→b4
		t.Errorf("second path len = %d, want 1", g.MaxLen(paths[1]))
	}
}

func TestPathsBetweenLimit(t *testing.T) {
	g := fig10()
	paths := g.PathsBetween(2, 4, 1)
	if len(paths) != 1 {
		t.Fatalf("limit ignored: %d paths", len(paths))
	}
	if len(g.PathsBetween(4, 2, 0)) != 0 {
		t.Error("found path against edge direction")
	}
	self := g.PathsBetween(3, 3, 0)
	if len(self) != 1 || len(self[0]) != 1 {
		t.Errorf("self paths = %v, want single trivial path", self)
	}
}

// LongestMinForced is the reference for LongestMinForcedPath: the same
// ψ*_min relaxation over an arbitrary forced edge set, probed through a
// map, with a fresh distance vector per call.
func (g *Graph) LongestMinForced(u, v int, forced map[Edge]bool) (int, error) {
	order, err := g.Topo()
	if err != nil {
		return 0, err
	}
	dist := make([]int, g.Len())
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[u] = 0
	for _, x := range order {
		if dist[x] == Unreachable {
			continue
		}
		a := &g.out[x]
		for k, s := range a.to {
			w := a.agg[k].Min
			if forced[Edge{x, s}] {
				w = a.agg[k].Max
			}
			if d := dist[x] + w; d > dist[s] {
				dist[s] = d
			}
		}
	}
	return dist[v], nil
}

func TestLongestMinForcedFigure13(t *testing.T) {
	// The Figure 13 scenario: x=b0 across {0,1,2}; y across {0,1} with
	// region [5,7] (aggregated); z across {1,2}; PE1 region y→z is [2,2];
	// PE2 region x→z is [1,3].
	g := New([]int{0, 1, 2})
	y := g.AddBarrier([]int{0, 1})
	z := g.AddBarrier([]int{1, 2})
	g.AddRegion(Initial, y, ir.Timing{Min: 5, Max: 7})
	g.AddRegion(Initial, y, ir.Timing{Min: 4, Max: 6})
	g.AddRegion(y, z, ir.Timing{Min: 2, Max: 2})
	g.AddRegion(Initial, z, ir.Timing{Min: 1, Max: 3})

	// Conservative ψ_min(x,z) = max(5+2, 1) = 7.
	min, err := g.LongestFrom(Initial, false)
	if err != nil {
		t.Fatal(err)
	}
	if min[z] != 7 {
		t.Errorf("ψ_min(x,z) = %d, want 7", min[z])
	}
	// ψ*_min with edge (x,y) forced to max: max(7+2, 1) = 9.
	forced := map[Edge]bool{{Initial, y}: true}
	got, err := g.LongestMinForced(Initial, z, forced)
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Errorf("ψ*_min(x,z) = %d, want 9", got)
	}
}

func TestLongestMinForcedUnreachable(t *testing.T) {
	g := fig10()
	got, err := g.LongestMinForced(1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != Unreachable {
		t.Errorf("got %d, want Unreachable", got)
	}
}

func TestPathEdges(t *testing.T) {
	p := Path{0, 2, 3, 4}
	e := p.appendEdges(nil)
	want := []Edge{{0, 2}, {2, 3}, {3, 4}}
	if len(e) != 3 || e[0] != want[0] || e[1] != want[1] || e[2] != want[2] {
		t.Errorf("edges = %v, want %v", e, want)
	}
	// A caller-provided buffer is reused in place.
	buf := make([]Edge, 0, 8)
	e2 := p.appendEdges(buf)
	if &e2[0] != &buf[:1][0] {
		t.Error("appendEdges ignored the provided buffer")
	}
}

func TestSuccsPredsSorted(t *testing.T) {
	g := fig10()
	s := g.Succs(Initial)
	if len(s) != 2 || s[0] != 1 || s[1] != 2 {
		t.Errorf("Succs(b0) = %v", s)
	}
	p := g.in[4]
	if len(p) != 2 || p[0] != 2 || p[1] != 3 {
		t.Errorf("predecessors of b4 = %v", p)
	}
}

func TestCyclicGraphErrors(t *testing.T) {
	// A cycle (scheduler bug territory) must surface as errors from every
	// analysis, not panics or silent nonsense.
	g := New([]int{0, 1})
	a := g.AddBarrier([]int{0, 1})
	b := g.AddBarrier([]int{0, 1})
	g.AddRegion(a, b, ir.Timing{Min: 1, Max: 1})
	g.AddRegion(b, a, ir.Timing{Min: 1, Max: 1})
	if _, err := g.Topo(); err == nil {
		t.Error("Topo accepted a cycle")
	}
	if _, err := g.Dominators(); err == nil {
		t.Error("Dominators accepted a cycle")
	}
	if _, err := g.LongestFrom(Initial, true); err == nil {
		t.Error("LongestFrom accepted a cycle")
	}
	if _, _, err := g.FireWindows(); err == nil {
		t.Error("FireWindows accepted a cycle")
	}
	if _, err := g.LongestMinForced(Initial, a, nil); err == nil {
		t.Error("LongestMinForced accepted a cycle")
	}
}

func TestDominatesUnreachableError(t *testing.T) {
	g := New([]int{0, 1})
	orphan := g.AddBarrier([]int{0, 1}) // no incoming region: unreachable
	if _, err := g.Dominates(Initial, orphan); err == nil {
		t.Error("Dominates accepted unreachable barrier")
	}
	if _, err := g.CommonDominator(Initial, orphan); err == nil {
		t.Error("CommonDominator accepted unreachable barrier")
	}
}
