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

	// Adjacency is compressed sparse rows over all N+2 nodes. Node u's
	// successors are succ[succOff[u]:succOff[u+1]], ascending, with the
	// edge kinds at the same positions of kinds (EdgeKind is a binary
	// search). Its predecessors are pred[predOff[u]:predOff[u+1]] in
	// build insertion order, the scheduler's iteration order and part
	// of the deterministic-output contract. edges lists every edge in
	// successor order, which is (From, To) order; realEdges is its
	// sublist between real nodes.
	succ, pred       []int
	succOff, predOff []int
	kinds            []Kind
	edges            []Edge
	realEdges        []Edge

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
	ts := b.Tuples
	n := len(ts)
	nodes := n + 2
	g := &Graph{
		Block: b,
		N:     n,
		Entry: n,
		Exit:  n + 1,
		Time:  make([]ir.Timing, nodes),
	}
	for i := range ts {
		g.Time[i] = tm.Of(ts[i].Op)
	}

	// Every edge added while visiting tuple i ends at i. So a per-node
	// stamp (stamp[from] == i+1) is the whole dedup, every successor list
	// comes out ascending, and the entry/exit pass cannot add a
	// duplicate. Positions in scratch and memState are stored + 1, so
	// zero means none.
	scratch := make([]int32, 2*n+nodes)
	ids := scratch[:n]           // variable id of each Load and Store
	nextLoad := scratch[n : 2*n] // next load of the same variable
	stamp := scratch[2*n:]       // last consumer each node has an edge to
	vars := make([]memState, ir.VarIDs(ts, ids))
	// Degrees are counted at off[u+2]; see freeze.
	off := make([]int, 2*(nodes+2))
	succOff, predOff := off[:nodes+2], off[nodes+2:]
	recs := make([]edgeRec, 0, 4*n+1) // at most two real and two dummy edges per tuple
	add := func(from, to int, k Kind) {
		if stamp[from] == int32(to+1) {
			return
		}
		stamp[from] = int32(to + 1)
		recs = append(recs, edgeRec{int32(from), int32(to), k})
		succOff[from+2]++
		predOff[to+2]++
	}

	for i := range ts {
		t := &ts[i]
		for k := 0; k < t.NumArgs(); k++ {
			if !t.IsImm[k] && t.Args[k] != ir.NoArg {
				add(t.Args[k], i, FlowEdge)
			}
		}
		switch t.Op {
		case ir.Load:
			v := &vars[ids[i]]
			if v.lastStore != 0 {
				add(int(v.lastStore-1), i, MemoryEdge)
			}
			if v.lastLoad == 0 {
				v.firstLoad = int32(i + 1)
			} else {
				nextLoad[v.lastLoad-1] = int32(i + 1)
			}
			v.lastLoad = int32(i + 1)
		case ir.Store:
			v := &vars[ids[i]]
			for l := v.firstLoad; l != 0; l = nextLoad[l-1] {
				add(int(l-1), i, MemoryEdge)
			}
			v.firstLoad, v.lastLoad = 0, 0
			if v.lastStore != 0 {
				add(int(v.lastStore-1), i, MemoryEdge)
			}
			v.lastStore = int32(i + 1)
		}
	}

	nreal := len(recs)
	for i := 0; i < n; i++ {
		if predOff[i+2] == 0 {
			add(g.Entry, i, FlowEdge)
		}
		if succOff[i+2] == 0 {
			add(i, g.Exit, FlowEdge)
		}
	}
	if n == 0 {
		add(g.Entry, g.Exit, FlowEdge)
	}
	g.freeze(recs, nreal, succOff, predOff)
	return g, nil
}

// memState is one variable's memory-ordering state during Build: its
// latest store and the chain of loads since (positions + 1).
type memState struct {
	lastStore, firstLoad, lastLoad int32
}

// edgeRec is one edge as Build adds it.
type edgeRec struct {
	from, to int32
	kind     Kind
}

// freeze counting-sorts the edges, given in insertion order, into the
// CSR arrays: by From for successors and kinds (stable, so each list
// keeps its ascending insertion order), and by To for predecessors
// (stable, so each list keeps insertion order). The degree of u arrives
// at succOff[u+2] and predOff[u+2]; prefix sums turn off[u+1] into u's
// start, and the scatter advances it to u's end, which is u+1's start.
// nreal is the number of leading recs between real nodes.
func (g *Graph) freeze(recs []edgeRec, nreal int, succOff, predOff []int) {
	for u := 2; u < len(succOff); u++ {
		succOff[u] += succOff[u-1]
		predOff[u] += predOff[u-1]
	}
	e := len(recs)
	adj := make([]int, 2*e)
	g.succ, g.pred = adj[:e:e], adj[e:]
	g.kinds = make([]Kind, e)
	edges := make([]Edge, e+nreal)
	g.edges, g.realEdges = edges[:e:e], edges[e:e]
	for _, r := range recs {
		s := succOff[r.from+1]
		succOff[r.from+1]++
		g.succ[s] = int(r.to)
		g.kinds[s] = r.kind
		g.edges[s] = Edge{int(r.from), int(r.to)}
		p := predOff[r.to+1]
		predOff[r.to+1]++
		g.pred[p] = int(r.from)
	}
	for _, ed := range g.edges {
		if ed.From < g.N && ed.To < g.N {
			g.realEdges = append(g.realEdges, ed)
		}
	}
	g.succOff, g.predOff = succOff[:len(succOff)-1], predOff[:len(predOff)-1]
}

// Succs returns the successor node indices of i, ascending. The slice is
// shared; do not modify. It is capped at its length, so an append copies.
func (g *Graph) Succs(i int) []int {
	lo, hi := g.succOff[i], g.succOff[i+1]
	return g.succ[lo:hi:hi]
}

// Preds returns the predecessor node indices of i, in build order. The
// slice is shared; do not modify. It is capped at its length, so an
// append copies.
func (g *Graph) Preds(i int) []int {
	lo, hi := g.predOff[i], g.predOff[i+1]
	return g.pred[lo:hi:hi]
}

// RealPreds returns the non-dummy predecessors of i, in the same order as
// Preds. The slice is shared; do not modify.
func (g *Graph) RealPreds(i int) []int {
	// Build links the entry only to nodes with no other predecessor, so
	// a node's predecessors are all real or the entry alone.
	p := g.Preds(i)
	if len(p) == 1 && p[0] == g.Entry {
		return p[:0]
	}
	return p
}

// EdgeKind returns the kind of edge (from, to) and whether it exists, by
// binary search over from's ascending successors.
func (g *Graph) EdgeKind(from, to int) (Kind, bool) {
	lo, hi := g.succOff[from], g.succOff[from+1]
	k := lo + sort.SearchInts(g.succ[lo:hi], to)
	if k < hi && g.succ[k] == to {
		return g.kinds[k], true
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
	n := len(g.Time)
	indeg := make([]int, n)
	for i := range indeg {
		indeg[i] = len(g.Preds(i))
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
		for _, s := range g.Succs(v) {
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
	seen := make([]bool, len(g.Time))
	stack := []int{u}
	seen[u] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Succs(x) {
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
	seen := make([]bool, len(g.Time))
	var stack []int
	for _, s := range g.Succs(u) {
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
		for _, s := range g.Succs(x) {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}
