package bdag

import (
	"math/rand"
	"testing"

	"barriermimd/internal/ir"
)

// Allocation-regression ceilings for the query fast paths. These guard the
// PR-3 scratch/bitset work: a change that quietly reintroduces per-query
// maps or []bool rows trips the ceilings long before it shows up in the
// tier-1 benches.

func TestAllocsWarmHasPath(t *testing.T) {
	g := fig10()
	g.HasPath(Initial, 4) // warm the reachability bitset row
	allocs := testing.AllocsPerRun(200, func() {
		g.HasPath(Initial, 4)
		g.HasPath(3, 1)
	})
	if allocs != 0 {
		t.Errorf("warm HasPath allocates %.1f per run, want 0", allocs)
	}
}

func TestAllocsWarmNthPath(t *testing.T) {
	g := fig10()
	if _, _, ok := g.NthPath(Initial, 4, 1); !ok {
		t.Fatal("fig10 has two Initial→b4 paths")
	}
	allocs := testing.AllocsPerRun(200, func() {
		for j := 0; j < 2; j++ {
			g.NthPath(Initial, 4, j)
		}
	})
	if allocs != 0 {
		t.Errorf("warm NthPath allocates %.1f per run, want 0", allocs)
	}
}

func TestAllocsInsertBarrier(t *testing.T) {
	g := fig10()
	parts := []int{0, 1}
	// Each run splits the edge the previous run created, so the split
	// target always exists no matter how many times AllocsPerRun iterates,
	// and ToNew+FromNew always equals the contribution the split edge
	// carries ([1,2], from fig10's Initial→b1 region).
	tm := ir.Timing{Min: 1, Max: 2}
	to := 1
	allocs := testing.AllocsPerRun(100, func() {
		to = g.InsertBarrier(parts, []Split{{Prev: Initial, Next: to, ToNew: tm}})
	})
	// Growing the graph must allocate (adjacency rows, participant copy,
	// patched memo rows), but only a bounded handful per insertion.
	if allocs > 16 {
		t.Errorf("InsertBarrier allocates %.1f per run, want <= 16", allocs)
	}
}

// TestAllocsInsertBarrierWarmRows pins the in-place memo patch: with the
// reachability and both longest-path rows of every barrier of a graph of
// about 100 barriers cached, an insertion plus a re-query of every warmed
// row allocates only for the new node, never per cached row.
func TestAllocsInsertBarrierWarmRows(t *testing.T) {
	const runs = 40
	rng := rand.New(rand.NewSource(5))
	m := newTimelineModel(8)
	m.parts, m.recent = 3, 4
	for p := range m.tails {
		m.tails[p] = randTiming(rng, 0, 12)
	}
	twin := m.rebuild()
	for twin.Len() < 100 {
		m.mutate(rng, twin)
	}
	g := m.rebuild()
	// Record the next insertions on the twin; replayed on g, which has
	// the same nodes, they create the same node indices.
	type insertion struct {
		parts  []int
		splits []Split
	}
	var log []insertion
	for len(log) <= runs {
		if parts, splits, ok := m.mutate(rng, twin); ok {
			log = append(log, insertion{parts, splits})
		}
	}
	n := g.Len()
	_, _ = g.Dominators()
	warmRows(g, n)
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		g.InsertBarrier(log[next].parts, log[next].splits)
		next++
		warmRows(g, n)
	})
	if allocs > 16 {
		t.Errorf("InsertBarrier with %d warm sources allocates %.1f per insertion and re-query, want <= 16", n, allocs)
	}
	if err := diffGraphs(g, m.rebuild()); err != nil {
		t.Fatal(err)
	}
}
