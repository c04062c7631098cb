package dag

import "testing"

// TestAdjacencyMirrorsSuccs checks the two facts EdgeKind's binary
// search rests on: every successor list is strictly ascending, and
// EdgeKind finds exactly the edges Edges lists, each with the kind it
// reports for that list position.
func TestAdjacencyMirrorsSuccs(t *testing.T) {
	g := fig1Graph(t)
	var fromSuccs []Edge
	for u := range g.Time {
		ss := g.Succs(u)
		for k, v := range ss {
			if k > 0 && ss[k-1] >= v {
				t.Fatalf("node %d: successors %v not strictly ascending", u, ss)
			}
			fromSuccs = append(fromSuccs, Edge{u, v})
		}
	}
	edges := g.Edges()
	if len(edges) != len(fromSuccs) {
		t.Fatalf("Edges has %d entries, successor lists %d", len(edges), len(fromSuccs))
	}
	for k, e := range edges {
		if fromSuccs[k] != e {
			t.Fatalf("edge %d is %v, successor lists give %v", k, e, fromSuccs[k])
		}
		if _, ok := g.EdgeKind(e.From, e.To); !ok {
			t.Fatalf("edge %v listed but EdgeKind misses it", e)
		}
	}
}

// TestEdgeKindNegativeLookups checks absent edges, including probes next
// to present ones (binary-search boundaries).
func TestEdgeKindNegativeLookups(t *testing.T) {
	g := fig1Graph(t)
	for _, e := range g.Edges() {
		if _, ok := g.EdgeKind(e.To, e.From); ok && !g.HasPath(e.To, e.From) {
			t.Fatalf("reverse of %v reported present", e)
		}
	}
	if _, ok := g.EdgeKind(0, 0); ok {
		t.Error("self edge reported present")
	}
	present := make(map[Edge]bool)
	for _, e := range g.Edges() {
		present[e] = true
	}
	for u := range g.Time {
		for v := range g.Time {
			_, ok := g.EdgeKind(u, v)
			if ok != present[Edge{u, v}] {
				t.Fatalf("EdgeKind(%d,%d) = %v, edge list says %v", u, v, ok, present[Edge{u, v}])
			}
		}
	}
}

// TestEdgesSortedAndReal checks the precomputed edge lists: global order
// by (From, To) and the real-edge sublist excluding dummies.
func TestEdgesSortedAndReal(t *testing.T) {
	g := fig1Graph(t)
	edges := g.Edges()
	for k := 1; k < len(edges); k++ {
		a, b := edges[k-1], edges[k]
		if a.From > b.From || (a.From == b.From && a.To >= b.To) {
			t.Fatalf("edges out of order at %d: %v then %v", k, a, b)
		}
	}
	want := 0
	for _, e := range edges {
		if !g.IsDummy(e.From) && !g.IsDummy(e.To) {
			want++
		}
	}
	if got := len(g.RealEdges()); got != want {
		t.Fatalf("RealEdges has %d entries, want %d", got, want)
	}
	for _, e := range g.RealEdges() {
		if g.IsDummy(e.From) || g.IsDummy(e.To) {
			t.Fatalf("real edge %v touches a dummy", e)
		}
	}
}

// TestRealPredsMatchesPreds checks that the precomputed non-dummy
// predecessor lists equal Preds filtered in order — the scheduler's
// iteration order over producers is part of its deterministic-output
// contract.
func TestRealPredsMatchesPreds(t *testing.T) {
	g := fig1Graph(t)
	for v := range g.Time {
		var want []int
		for _, u := range g.Preds(v) {
			if !g.IsDummy(u) {
				want = append(want, u)
			}
		}
		got := g.RealPreds(v)
		if len(got) != len(want) {
			t.Fatalf("node %d: RealPreds %v vs filtered Preds %v", v, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("node %d: RealPreds %v vs filtered Preds %v (order matters)", v, got, want)
			}
		}
	}
}
