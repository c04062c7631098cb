package dag

import (
	"fmt"
	"sort"
	"sync"

	"barriermimd/internal/ir"
)

// Edge is a directed precedence edge between node indices.
type Edge struct {
	From, To int
}

// Kind distinguishes why an edge exists. Flow edges carry a value from
// producer to consumer; memory edges order accesses to the same variable
// (read-after-write through memory, write-after-read, write-after-write).
// Both kinds are synchronization constraints for the scheduler; the
// distinction is kept for diagnostics.
type Kind uint8

const (
	// FlowEdge carries a tuple value from producer to consumer.
	FlowEdge Kind = iota
	// MemoryEdge orders two accesses to the same variable.
	MemoryEdge
)

// Graph is the instruction DAG for one basic block. Real nodes occupy
// indices [0, N); Entry and Exit are dummy nodes with zero execution time at
// indices N and N+1. The zero value is not useful; construct with Build.
type Graph struct {
	// Block is the source basic block; node i corresponds to
	// Block.Tuples[i].
	Block *ir.Block
	// N is the number of real (non-dummy) nodes.
	N int
	// Entry and Exit are the dummy source and sink node indices.
	Entry, Exit int
	// Time holds the execution-time range of each node (dummies are
	// [0,0]).
	Time []ir.Timing

	// succs/preds keep build insertion order (the scheduler's iteration
	// order, part of the deterministic-output contract); adjTo/adjKind are
	// the same successors re-sorted per node with parallel edge kinds, so
	// EdgeKind is a binary search instead of a map lookup. edges,
	// realEdges, and realPreds are materialized once at Build time.
	succs     [][]int
	preds     [][]int
	adjTo     [][]int
	adjKind   [][]Kind
	edges     []Edge
	realEdges []Edge
	realPreds [][]int

	// The graph is immutable after Build, so derived orders and
	// per-node aggregates are computed once and shared between all
	// callers. Callers must treat the returned slices as read-only.
	topoOnce    sync.Once
	topoOrder   []int
	topoErr     error
	heightsOnce sync.Once
	heights     Heights
	heightsErr  error
	finOnce     sync.Once
	fin         FinishTimes
	finErr      error
}

// Build constructs the DAG for a block under the given timing model.
// Edges are:
//   - flow edges from each operand tuple to its consumer and from a stored
//     value to its store;
//   - memory-ordering edges per variable: the most recent store to v
//     precedes every later load of v and the next store of v, and every
//     load of v since that store precedes the next store of v.
//
// Dummy entry/exit nodes are connected to all sources/sinks.
func Build(b *ir.Block, tm ir.TimingModel) (*Graph, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if err := tm.Validate(); err != nil {
		return nil, err
	}
	n := b.Len()
	g := &Graph{
		Block: b,
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
func (g *Graph) finalize(kind map[Edge]Kind) {
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

// Succs returns the successor node indices of i. The slice is shared; do
// not modify.
func (g *Graph) Succs(i int) []int { return g.succs[i] }

// Preds returns the predecessor node indices of i. The slice is shared; do
// not modify.
func (g *Graph) Preds(i int) []int { return g.preds[i] }

// RealPreds returns the non-dummy predecessors of i, in the same order as
// Preds. The slice is shared; do not modify.
func (g *Graph) RealPreds(i int) []int { return g.realPreds[i] }

// EdgeKind returns the kind of edge (from, to) and whether it exists, by
// binary search over from's sorted adjacency.
func (g *Graph) EdgeKind(from, to int) (Kind, bool) {
	adj := g.adjTo[from]
	k := sort.SearchInts(adj, to)
	if k < len(adj) && adj[k] == to {
		return g.adjKind[from][k], true
	}
	return 0, false
}

// IsDummy reports whether node i is the entry or exit dummy.
func (g *Graph) IsDummy(i int) bool { return i == g.Entry || i == g.Exit }

// Edges returns all edges, sorted by (From, To), precomputed at Build
// time. The slice is shared; do not modify.
func (g *Graph) Edges() []Edge { return g.edges }

// RealEdges returns the edges between real nodes only, i.e. excluding those
// incident to the dummy entry/exit, sorted by (From, To). Each such edge is
// one "implied synchronization" in the paper's accounting (section 3.1).
// The slice is shared; do not modify.
func (g *Graph) RealEdges() []Edge { return g.realEdges }

// TotalImpliedSynchronizations is the number of edges between real nodes:
// each is a producer/consumer pair that a conventional MIMD would
// synchronize at run time.
func (g *Graph) TotalImpliedSynchronizations() int { return len(g.RealEdges()) }

// Topo returns a topological order over all nodes (entry first, exit last),
// or an error if the graph contains a cycle. The order is deterministic:
// among ready nodes, the lowest index is emitted first. The order is
// computed once per graph; the returned slice is shared, do not modify.
func (g *Graph) Topo() ([]int, error) {
	g.topoOnce.Do(func() { g.topoOrder, g.topoErr = g.computeTopo() })
	return g.topoOrder, g.topoErr
}

func (g *Graph) computeTopo() ([]int, error) {
	n := len(g.succs)
	indeg := make([]int, n)
	for _, e := range g.Edges() {
		indeg[e.To]++
	}
	// Min-heap behaviour via sorted ready list is O(n^2) worst case but
	// blocks are small (hundreds of nodes); determinism matters more.
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

// HasPath reports whether there is a directed path from u to v (u == v
// counts as a path of length zero).
func (g *Graph) HasPath(u, v int) bool {
	if u == v {
		return true
	}
	seen := make([]bool, len(g.succs))
	stack := []int{u}
	seen[u] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.succs[x] {
			if s == v {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// TransitiveReduction returns the set of edges that remain after removing
// every edge (u,v) for which another path u→v exists. This reproduces the
// graph-structure-only redundant-synchronization removal of Shaffer
// [Shaf89] discussed in section 3, used as an ablation baseline.
func (g *Graph) TransitiveReduction() []Edge {
	var kept []Edge
	for _, e := range g.Edges() {
		// Temporarily ignore e itself during the reachability probe by
		// checking for a path from u to v that starts with a different
		// successor.
		if !g.hasPathAvoidingEdge(e.From, e.To) {
			kept = append(kept, e)
		}
	}
	return kept
}

func (g *Graph) hasPathAvoidingEdge(u, v int) bool {
	seen := make([]bool, len(g.succs))
	var stack []int
	for _, s := range g.succs[u] {
		if s == v {
			continue // skip the direct edge
		}
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == v {
			return true
		}
		for _, s := range g.succs[x] {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}
