package dag

import (
	"fmt"
	"sort"

	"barriermimd/internal/ir"
)

// This file keeps the map-based DAG construction that Build replaced, as
// the differential oracle: Build must produce the same adjacency (in the
// same per-node order), edge kinds, edge lists, timings, topological
// order and heights for every block (TestBuildMatchesOracle, FuzzBuild).

// oracleGraph holds the map-based construction's adjacency.
type oracleGraph struct {
	N           int
	Entry, Exit int
	Time        []ir.Timing

	succs     [][]int
	preds     [][]int
	adjTo     [][]int
	adjKind   [][]Kind
	edges     []Edge
	realEdges []Edge
	realPreds [][]int
}

func (g *oracleGraph) IsDummy(i int) bool { return i == g.Entry || i == g.Exit }

// buildOracle is the map-based Build.
func buildOracle(b *ir.Block, tm ir.TimingModel) (*oracleGraph, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if err := tm.Validate(); err != nil {
		return nil, err
	}
	n := b.Len()
	g := &oracleGraph{
		N:     n,
		Entry: n,
		Exit:  n + 1,
		Time:  make([]ir.Timing, n+2),
		succs: make([][]int, n+2),
		preds: make([][]int, n+2),
	}
	for i, t := range b.Tuples {
		g.Time[i] = tm.Of(t.Op)
	}

	kind := make(map[Edge]Kind)
	addEdge := func(from, to int, k Kind) {
		e := Edge{from, to}
		if _, dup := kind[e]; dup || from == to {
			return
		}
		kind[e] = k
		g.succs[from] = append(g.succs[from], to)
		g.preds[to] = append(g.preds[to], from)
	}

	lastStore := make(map[string]int)    // variable -> node of latest store
	loadsSince := make(map[string][]int) // loads of v since lastStore[v]
	for i, t := range b.Tuples {
		for _, a := range t.Operands() {
			addEdge(a, i, FlowEdge)
		}
		switch t.Op {
		case ir.Load:
			if s, ok := lastStore[t.Var]; ok {
				addEdge(s, i, MemoryEdge)
			}
			loadsSince[t.Var] = append(loadsSince[t.Var], i)
		case ir.Store:
			for _, l := range loadsSince[t.Var] {
				addEdge(l, i, MemoryEdge)
			}
			loadsSince[t.Var] = nil
			if s, ok := lastStore[t.Var]; ok {
				addEdge(s, i, MemoryEdge)
			}
			lastStore[t.Var] = i
		}
	}

	for i := 0; i < n; i++ {
		if len(g.preds[i]) == 0 {
			addEdge(g.Entry, i, FlowEdge)
		}
		if len(g.succs[i]) == 0 {
			addEdge(i, g.Exit, FlowEdge)
		}
	}
	if n == 0 {
		addEdge(g.Entry, g.Exit, FlowEdge)
	}
	g.finalize(kind)
	return g, nil
}

// finalize freezes the edge set into its query-friendly forms: per-node
// sorted adjacency with parallel kinds (EdgeKind binary search), the
// global sorted edge list, the real-edge sublist, and per-node non-dummy
// predecessors (in Preds order).
func (g *oracleGraph) finalize(kind map[Edge]Kind) {
	total := len(kind)
	g.adjTo = make([][]int, len(g.succs))
	g.adjKind = make([][]Kind, len(g.succs))
	g.edges = make([]Edge, 0, total)
	g.realPreds = make([][]int, len(g.preds))
	for u, ss := range g.succs {
		if len(ss) == 0 {
			continue
		}
		to := append([]int(nil), ss...)
		sort.Ints(to)
		ks := make([]Kind, len(to))
		for k, v := range to {
			ks[k] = kind[Edge{u, v}]
			e := Edge{u, v}
			g.edges = append(g.edges, e)
			if !g.IsDummy(u) && !g.IsDummy(v) {
				g.realEdges = append(g.realEdges, e)
			}
		}
		g.adjTo[u] = to
		g.adjKind[u] = ks
	}
	for v, ps := range g.preds {
		for _, u := range ps {
			if !g.IsDummy(u) {
				g.realPreds[v] = append(g.realPreds[v], u)
			}
		}
	}
}

// EdgeKind is the oracle's binary search over sorted adjacency.
func (g *oracleGraph) EdgeKind(from, to int) (Kind, bool) {
	adj := g.adjTo[from]
	k := sort.SearchInts(adj, to)
	if k < len(adj) && adj[k] == to {
		return g.adjKind[from][k], true
	}
	return 0, false
}

func (g *oracleGraph) computeTopo() ([]int, error) {
	n := len(g.succs)
	indeg := make([]int, n)
	for _, e := range g.edges {
		indeg[e.To]++
	}
	var ready []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		sort.Ints(ready)
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		for _, s := range g.succs[v] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("dag: graph contains a cycle (%d of %d nodes ordered)", len(order), n)
	}
	return order, nil
}

func (g *oracleGraph) computeHeights() (Heights, error) {
	order, err := g.computeTopo()
	if err != nil {
		return Heights{}, err
	}
	h := Heights{
		Min: make([]int, len(order)),
		Max: make([]int, len(order)),
	}
	for k := len(order) - 1; k >= 0; k-- {
		i := order[k]
		var bestMin, bestMax int
		for _, s := range g.succs[i] {
			if h.Min[s] > bestMin {
				bestMin = h.Min[s]
			}
			if h.Max[s] > bestMax {
				bestMax = h.Max[s]
			}
		}
		h.Min[i] = g.Time[i].Min + bestMin
		h.Max[i] = g.Time[i].Max + bestMax
	}
	return h, nil
}
