package bdag

import (
	"math/rand"
	"testing"
	"testing/quick"

	"barriermimd/internal/ir"
)

// randomDag builds a random layered barrier dag rooted at the initial
// barrier, mimicking the structures the scheduler produces.
func randomDag(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	nproc := 2 + rng.Intn(6)
	procs := make([]int, nproc)
	for i := range procs {
		procs[i] = i
	}
	g := New(procs)
	n := 2 + rng.Intn(10)
	for i := 0; i < n; i++ {
		// Random participant pair.
		a := rng.Intn(nproc)
		b := (a + 1 + rng.Intn(nproc-1)) % nproc
		id := g.AddBarrier([]int{a, b})
		// Connect from 1-2 earlier barriers so everything stays reachable
		// from the initial barrier.
		preds := 1 + rng.Intn(2)
		for k := 0; k < preds; k++ {
			p := rng.Intn(id) // any earlier barrier, including Initial
			if p == id {
				continue
			}
			min := 1 + rng.Intn(5)
			g.AddRegion(p, id, ir.Timing{Min: min, Max: min + rng.Intn(20)})
		}
	}
	return g
}

func TestQuickRandomDagsAcyclic(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDag(seed)
		order, err := g.Topo()
		return err == nil && len(order) == g.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickDominatorAxioms(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDag(seed)
		idom, err := g.Dominators()
		if err != nil {
			return false
		}
		for b := 1; b < g.Len(); b++ {
			if idom[b] == -1 {
				continue // unreachable barrier (random graph artifact)
			}
			// Reflexivity and idom domination.
			self, err := g.Dominates(b, b)
			if err != nil || !self {
				return false
			}
			dom, err := g.Dominates(idom[b], b)
			if err != nil || !dom {
				return false
			}
			// The initial barrier dominates every reachable barrier.
			root, err := g.Dominates(Initial, b)
			if err != nil || !root {
				return false
			}
			// idom is a strict ancestor: removing it must cut every path
			// from Initial — equivalently every path Initial→b passes
			// through idom[b]; spot-check with reachability avoiding it.
			if idom[b] != Initial && reachesAvoiding(g, Initial, b, idom[b]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// reachesAvoiding reports whether v is reachable from u without visiting
// the avoid node.
func reachesAvoiding(g *Graph, u, v, avoid int) bool {
	if u == avoid || v == avoid {
		return false
	}
	seen := make([]bool, g.Len())
	stack := []int{u}
	seen[u] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == v {
			return true
		}
		for _, s := range g.Succs(x) {
			if s != avoid && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

func TestQuickCommonDominatorProperties(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDag(seed)
		idom, err := g.Dominators()
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
		for trial := 0; trial < 10; trial++ {
			a := rng.Intn(g.Len())
			b := rng.Intn(g.Len())
			if idom[a] == -1 || idom[b] == -1 {
				continue
			}
			cd, err := g.CommonDominator(a, b)
			if err != nil {
				return false
			}
			da, err := g.Dominates(cd, a)
			if err != nil || !da {
				return false
			}
			db, err := g.Dominates(cd, b)
			if err != nil || !db {
				return false
			}
			// Symmetry.
			cd2, err := g.CommonDominator(b, a)
			if err != nil || cd2 != cd {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickFireWindowInvariants(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDag(seed)
		fmin, fmax, err := g.FireWindows()
		if err != nil {
			return false
		}
		for b := 0; b < g.Len(); b++ {
			if fmin[b] == Unreachable != (fmax[b] == Unreachable) {
				return false
			}
			if fmin[b] != Unreachable && fmin[b] > fmax[b] {
				return false
			}
		}
		// Windows are monotone along edges.
		for _, e := range g.Edges() {
			if fmin[e.From] == Unreachable || fmin[e.To] == Unreachable {
				continue
			}
			t, _ := g.EdgeTiming(e.From, e.To)
			if fmin[e.To] < fmin[e.From]+t.Min {
				return false
			}
			if fmax[e.To] < fmax[e.From]+t.Max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickForcedMinBounds(t *testing.T) {
	// ψ*_min with a forced path lies between the plain min longest path
	// and the all-max longest path, and the allocation-free
	// LongestMinForcedPath agrees with the map-based reference.
	var sc Scratch
	f := func(seed int64) bool {
		g := randomDag(seed)
		distMin, err := g.LongestFrom(Initial, false)
		if err != nil {
			return false
		}
		distMax, err := g.LongestFrom(Initial, true)
		if err != nil {
			return false
		}
		for v := 1; v < g.Len(); v++ {
			if distMin[v] == Unreachable {
				continue
			}
			for _, path := range g.PathsBetween(Initial, v, 4) {
				forced := make(map[Edge]bool)
				for _, e := range path.appendEdges(nil) {
					forced[e] = true
				}
				got, err := g.LongestMinForced(Initial, v, forced)
				if err != nil {
					return false
				}
				if got < distMin[v] || got > distMax[v] {
					return false
				}
				if fast, err := g.LongestMinForcedPath(Initial, v, path, &sc); err != nil || fast != got {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickPathsSortedAndDistinct(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDag(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
		v := rng.Intn(g.Len())
		paths := g.PathsBetween(Initial, v, 32)
		seen := make(map[string]bool)
		prev := int(^uint(0) >> 1)
		for _, p := range paths {
			l := g.MaxLen(p)
			if l > prev {
				return false // not sorted descending
			}
			prev = l
			key := ""
			for _, n := range p {
				key += string(rune('A' + n))
			}
			if seen[key] {
				return false // duplicate path
			}
			seen[key] = true
			// Path must start at Initial and end at v with real edges.
			if p[0] != Initial || p[len(p)-1] != v {
				return false
			}
			for i := 0; i+1 < len(p); i++ {
				if _, ok := g.EdgeTiming(p[i], p[i+1]); !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
