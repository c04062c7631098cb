package bdag

import (
	"fmt"
	"sort"

	"barriermimd/internal/ir"
)

// Initial is the index of the initial barrier, which spans all processors
// and precedes all other barriers (section 3.1).
const Initial = 0

// Unreachable is returned by longest-path queries when no path exists.
const Unreachable = -1

// Edge identifies a directed barrier-dag edge.
type Edge struct {
	From, To int
}

// arcs is one node's successor adjacency, sorted by target. agg carries the
// Figure 13 aggregate of the per-processor contributions in contrib, whose
// multiset is retained so a contribution can be withdrawn again when an
// incremental mutation reroutes a processor's region through a new barrier.
type arcs struct {
	to      []int
	agg     []ir.Timing
	contrib [][]ir.Timing
}

// find returns the position of target v in the sorted arc list and whether
// it is present.
func (a *arcs) find(v int) (int, bool) {
	k := sort.SearchInts(a.to, v)
	return k, k < len(a.to) && a.to[k] == v
}

// Graph is a barrier dag. Create with New, add barriers with AddBarrier,
// and contribute per-processor code-region times with AddRegion; a built
// graph can then be patched in place with the incremental mutations of
// incremental.go (InsertBarrier, AddBarrierAfter).
//
// Path queries (HasPath, Topo, LongestFrom, Dominators, PathsBetween) are
// memoized per graph generation — see memo.go. Construction-time mutations
// (AddBarrier, AddRegion) drop the caches wholesale; the incremental
// mutations patch the cached rows to their new values. Cached slices and
// adjacency lists are shared with the graph and valid until the next
// mutation: treat every slice a query returns as read-only.
//
// A Graph is a working structure with one owner: queries fill the memo,
// so even read-only use must stay on one goroutine.
type Graph struct {
	parts [][]int // participants per barrier, sorted
	out   []arcs  // successor arcs, sorted by target
	in    [][]int // sorted predecessor lists
	memo  memo    // query caches, invalidated on mutation
}

// New returns a graph containing only the initial barrier across the given
// processors.
func New(initialParticipants []int) *Graph {
	g := &Graph{}
	g.AddBarrier(initialParticipants)
	return g
}

// Len returns the number of barriers.
func (g *Graph) Len() int { return len(g.parts) }

// AddBarrier appends a barrier with the given participating processors and
// returns its index. This is the construction-time mutation: it drops the
// memo wholesale. Use InsertBarrier to patch a built graph instead.
func (g *Graph) AddBarrier(participants []int) int {
	g.memo.invalidate()
	return g.addNode(participants)
}

// addNode appends the node arrays for a new barrier without touching the
// memo. Row headers parked beyond the live length (left by Reset) are
// recycled, so a warm arena rebuild allocates nothing per node. The
// spares never alias live rows: node rows are only appended, never
// shifted.
func (g *Graph) addNode(participants []int) int {
	n := len(g.parts)
	if n < cap(g.parts) {
		g.parts = g.parts[:n+1]
		g.parts[n] = append(g.parts[n][:0], participants...)
	} else {
		g.parts = append(g.parts, append([]int(nil), participants...))
	}
	sort.Ints(g.parts[n])
	if n < cap(g.out) {
		g.out = g.out[:n+1]
		a := &g.out[n]
		a.to, a.agg, a.contrib = a.to[:0], a.agg[:0], a.contrib[:0]
	} else {
		g.out = append(g.out, arcs{})
	}
	if n < cap(g.in) {
		g.in = g.in[:n+1]
		g.in[n] = g.in[n][:0]
	} else {
		g.in = append(g.in, nil)
	}
	return n
}

// Reset returns the graph to a single initial barrier while keeping every
// backing array: node rows, adjacency storage, and memoized query rows
// are parked for the next generation to reclaim, so a scheduler can
// rebuild its derived barrier dag in place instead of allocating a fresh
// graph per merge or rollback. Lifetime counters restart; harvest
// CacheStats/MaintStats first.
//
// Reset ends every slice a query on this graph returned earlier: the
// next generation overwrites them. The scheduler copies the few results
// it keeps across rebuilds, and what a finished Schedule keeps of the
// final graph, before it resets.
func (g *Graph) Reset(initialParticipants []int) {
	g.parts = g.parts[:0]
	g.out = g.out[:0]
	g.in = g.in[:0]
	g.memo.reset()
	g.AddBarrier(initialParticipants)
}

// Participants returns the sorted processor set of barrier b. Shared; do
// not modify.
func (g *Graph) Participants(b int) []int { return g.parts[b] }

// AddRegion records that some processor executes a code region taking t
// between barriers u and v. Contributions aggregate per the Figure 13
// rule: edge min/max are the maxima of the contributed mins/maxes. This is
// the construction-time mutation: it drops the memo wholesale.
func (g *Graph) AddRegion(u, v int, t ir.Timing) {
	g.memo.invalidate()
	g.addContrib(u, v, t)
}

// addContrib inserts one processor's contribution to edge (u,v), creating
// the edge if needed, without touching the memo. Inserts shift elements
// within the existing backing arrays, so the hot loop allocates nothing
// once they have grown.
func (g *Graph) addContrib(u, v int, t ir.Timing) {
	if u == v {
		panic(fmt.Sprintf("bdag: self edge on barrier %d", u))
	}
	a := &g.out[u]
	k, ok := a.find(v)
	if !ok {
		a.to = insertAt(a.to, k, v)
		a.agg = insertAt(a.agg, k, t)
		a.contrib = insertContrib(a.contrib, k, t)
		ki := sort.SearchInts(g.in[v], u)
		g.in[v] = insertAt(g.in[v], ki, u)
		return
	}
	a.contrib[k] = append(a.contrib[k], t)
	cur := a.agg[k]
	if t.Min > cur.Min {
		cur.Min = t.Min
	}
	if t.Max > cur.Max {
		cur.Max = t.Max
	}
	a.agg[k] = cur
}

// removeContrib withdraws one contribution exactly equal to t from edge
// (u,v), deleting the edge when no contributions remain, and re-aggregating
// otherwise. It panics when the contribution is absent: callers assert they
// contributed t earlier, so absence is a maintenance bug.
func (g *Graph) removeContrib(u, v int, t ir.Timing) {
	a := &g.out[u]
	k, ok := a.find(v)
	if !ok {
		panic(fmt.Sprintf("bdag: removeContrib on missing edge (%d,%d)", u, v))
	}
	c := a.contrib[k]
	at := -1
	for i, x := range c {
		if x == t {
			at = i
			break
		}
	}
	if at < 0 {
		panic(fmt.Sprintf("bdag: contribution %v absent from edge (%d,%d)", t, u, v))
	}
	if len(c) == 1 {
		a.to = deleteAt(a.to, k)
		a.agg = deleteAt(a.agg, k)
		a.contrib = deleteAt(a.contrib, k)
		ki := sort.SearchInts(g.in[v], u)
		g.in[v] = deleteAt(g.in[v], ki)
		return
	}
	nc := append(c[:at], c[at+1:]...)
	a.contrib[k] = nc
	agg := ir.Timing{}
	for _, x := range nc {
		if x.Min > agg.Min {
			agg.Min = x.Min
		}
		if x.Max > agg.Max {
			agg.Max = x.Max
		}
	}
	a.agg[k] = agg
}

// insertAt returns s with v inserted at position k, shifting the tail
// within the existing backing array.
func insertAt[T any](s []T, k int, v T) []T {
	var zero T
	s = append(s, zero)
	copy(s[k+1:], s[k:])
	s[k] = v
	return s
}

// insertContrib inserts a fresh single-contribution multiset {t} at
// position k. It recycles the slice header parked just beyond len(s)
// when one exists — after a Reset those spares are the previous
// generation's dead rows, so warm arena rebuilds allocate nothing per
// edge. Spares never alias a live row: contribution rows are only ever
// appended or tail-zeroed by deleteAt, never duplicated past the length.
func insertContrib(s [][]ir.Timing, k int, t ir.Timing) [][]ir.Timing {
	var spare []ir.Timing
	if n := len(s); n < cap(s) {
		spare = s[:n+1][n]
	}
	s = append(s, nil)
	copy(s[k+1:], s[k:])
	s[k] = append(spare[:0], t)
	return s
}

// deleteAt returns s without the element at position k, shifting the
// tail in place.
func deleteAt[T any](s []T, k int) []T {
	copy(s[k:], s[k+1:])
	var zero T
	s[len(s)-1] = zero
	return s[:len(s)-1]
}

// EdgeTiming returns the aggregated timing of edge (u,v) and whether the
// edge exists.
func (g *Graph) EdgeTiming(u, v int) (ir.Timing, bool) {
	a := &g.out[u]
	if k, ok := a.find(v); ok {
		return a.agg[k], true
	}
	return ir.Timing{}, false
}

// Succs returns the successors of u in ascending order. Shared and valid
// until the next mutation, like every memo row; do not modify.
func (g *Graph) Succs(u int) []int { return g.out[u].to }

// Edges returns all edges sorted by (From, To).
func (g *Graph) Edges() []Edge {
	var out []Edge
	for u := range g.out {
		for _, v := range g.out[u].to {
			out = append(out, Edge{u, v})
		}
	}
	return out
}

// HasPath reports whether v is reachable from u (u == v counts). The
// full reachability set of u is computed once and memoized, so repeated
// queries from the same source are O(1).
func (g *Graph) HasPath(u, v int) bool {
	if u == v {
		return true
	}
	return g.reachSet(u).test(v)
}

// computeReach returns the reachability set of u (including u itself).
// The DFS reuses the memo's traversal stack and short-circuits through
// already-cached rows — hitting a node whose row is cached unions the
// whole row in one word-ops pass instead of walking its cone again.
func (g *Graph) computeReach(u int) bitset {
	m := &g.memo
	r := m.grabBitset(g.Len())
	stack := append(m.stack[:0], u)
	r.set(u)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.out[x].to {
			if r.test(s) {
				continue
			}
			if row := m.reachRow(s); row != nil {
				r.or(row)
				continue
			}
			r.set(s)
			stack = append(stack, s)
		}
	}
	m.stack = stack
	return r
}

// Ordered reports whether barriers a and b are ordered by <_b (a path
// exists in either direction). Unordered barriers with overlapping fire
// windows are merge candidates in an SBM schedule (section 4.4.3).
func (g *Graph) Ordered(a, b int) bool {
	return g.HasPath(a, b) || g.HasPath(b, a)
}

// Topo returns a topological order (initial barrier first), or an error if
// the graph is cyclic (which indicates a scheduler bug). The order is
// memoized and shared until the next mutation; do not modify. After an
// incremental mutation the cached order is patched by insertion when the
// new constraints allow it, so the order is always valid but not
// necessarily the one a fresh computation would produce.
func (g *Graph) Topo() ([]int, error) {
	m := &g.memo
	if m.topoSet {
		m.stats.Hits++
		return m.topo, m.topoErr
	}
	m.stats.Misses++
	g.recomputeTopo()
	return m.topo, m.topoErr
}

// computeTopo builds the topological order (the in-degree counter and
// ready list come from memo scratch).
func (g *Graph) computeTopo() ([]int, error) {
	n := g.Len()
	m := &g.memo
	indeg := m.grabInts(n)
	for v := range g.in {
		indeg[v] = len(g.in[v])
	}
	ready := m.stack[:0]
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := m.grabInts(n)[:0]
	for len(ready) > 0 {
		// The smallest ready barrier goes next; ready is unordered, so it
		// is swap-removed and the list never drifts off m.stack's backing.
		k := 0
		for j, x := range ready {
			if x < ready[k] {
				k = j
			}
		}
		v := ready[k]
		ready[k] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, v)
		for _, s := range g.out[v].to {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	m.stack = ready
	m.intFree = append(m.intFree, indeg)
	if len(order) != n {
		return nil, fmt.Errorf("bdag: cycle detected (%d of %d barriers ordered)", len(order), n)
	}
	return order, nil
}

// weight selects the min or max component of an edge.
func weight(t ir.Timing, useMax bool) int {
	if useMax {
		return t.Max
	}
	return t.Min
}

// LongestFrom computes, for every barrier, the longest-path distance from u
// using maximum (useMax) or minimum edge weights. Unreachable barriers get
// Unreachable. dist[u] == 0. The vector is memoized per (u, useMax) and
// shared until the next mutation; do not modify. Errors (a cyclic graph)
// are not cached: they indicate a scheduler bug and abort the run anyway.
func (g *Graph) LongestFrom(u int, useMax bool) ([]int, error) {
	m := &g.memo
	tbl := m.distTable(useMax)
	*tbl = sized(*tbl, g.Len())
	if d := (*tbl)[u]; d != nil {
		m.stats.Hits++
		return d, nil
	}
	m.stats.Misses++
	order, err := g.Topo()
	if err != nil {
		return nil, err
	}
	d := g.computeLongestFrom(order, u, useMax)
	(*tbl)[u] = d
	return d, nil
}

// computeLongestFrom runs the topological-order relaxation given a
// precomputed order.
func (g *Graph) computeLongestFrom(order []int, u int, useMax bool) []int {
	dist := g.memo.grabInts(g.Len())
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[u] = 0
	for _, x := range order {
		if dist[x] == Unreachable {
			continue
		}
		a := &g.out[x]
		for k, v := range a.to {
			if d := dist[x] + weight(a.agg[k], useMax); d > dist[v] {
				dist[v] = d
			}
		}
	}
	return dist
}

// FireWindows returns, for every barrier, the earliest and latest firing
// time relative to the initial barrier: the longest path from the initial
// barrier under minimum and maximum edge weights respectively. A barrier's
// actual firing time in any execution lies within its window.
func (g *Graph) FireWindows() (min, max []int, err error) {
	min, err = g.LongestFrom(Initial, false)
	if err != nil {
		return nil, nil, err
	}
	max, err = g.LongestFrom(Initial, true)
	if err != nil {
		return nil, nil, err
	}
	return min, max, nil
}

// Dominators computes the immediate dominator of every barrier with respect
// to the initial barrier, using the iterative dataflow algorithm. The
// initial barrier's idom is itself. Barriers unreachable from the initial
// barrier get idom -1 (they cannot occur in a valid schedule). The vector
// is memoized and shared until the next mutation; do not modify.
func (g *Graph) Dominators() ([]int, error) {
	m := &g.memo
	if m.idomSet {
		m.stats.Hits++
		return m.idom, m.idomErr
	}
	m.stats.Misses++
	order, err := g.Topo()
	if err != nil {
		m.idom, m.idomErr = nil, err
	} else {
		m.idom, m.idomErr = g.computeDominators(order), nil
	}
	m.idomSet = true
	return m.idom, m.idomErr
}

// computeDominators runs the iterative dataflow algorithm given a
// precomputed topological order.
func (g *Graph) computeDominators(order []int) []int {
	idom := g.memo.grabInts(g.Len())
	for i := range idom {
		idom[i] = -1
	}
	idom[Initial] = Initial
	g.refineDominators(order, idom)
	return idom
}

// refineDominators iterates the dataflow equations over nodes, which must
// be in topological order, until fixpoint, updating idom in place; every
// other node's entry is taken as a final input. computeDominators passes
// the whole order, the insertion patch of incremental.go only the new
// barrier's cone. intersect compares positions in the cached order.
func (g *Graph) refineDominators(nodes, idom []int) {
	pos := g.memo.topoPos
	intersect := func(a, b int) int {
		for a != b {
			for pos[a] > pos[b] {
				a = idom[a]
			}
			for pos[b] > pos[a] {
				b = idom[b]
			}
		}
		return a
	}
	changed := true
	for changed {
		changed = false
		for _, v := range nodes {
			if v == Initial {
				continue
			}
			newIdom := -1
			for _, u := range g.in[v] {
				if idom[u] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = u
				} else {
					newIdom = intersect(newIdom, u)
				}
			}
			if newIdom != -1 && idom[v] != newIdom {
				idom[v] = newIdom
				changed = true
			}
		}
	}
}

// CommonDominator returns the nearest common dominator of barriers a and b:
// the deepest barrier that dominates both — the last common synchronization
// point of the processors involved (section 4.4.1 step [2]).
func (g *Graph) CommonDominator(a, b int) (int, error) {
	idom, err := g.Dominators()
	if err != nil {
		return 0, err
	}
	return commonDominator(idom, a, b)
}

// commonDominator walks the dominator tree given precomputed idoms.
func commonDominator(idom []int, a, b int) (int, error) {
	if idom[a] == -1 || idom[b] == -1 {
		return 0, fmt.Errorf("bdag: barrier unreachable from initial barrier")
	}
	depth := func(x int) int {
		d := 0
		for x != Initial {
			x = idom[x]
			d++
		}
		return d
	}
	da, db := depth(a), depth(b)
	for da > db {
		a = idom[a]
		da--
	}
	for db > da {
		b = idom[b]
		db--
	}
	for a != b {
		a = idom[a]
		b = idom[b]
	}
	return a, nil
}

// Dominates reports whether barrier x dominates barrier y (every path from
// the initial barrier to y passes through x). Every barrier dominates
// itself.
func (g *Graph) Dominates(x, y int) (bool, error) {
	idom, err := g.Dominators()
	if err != nil {
		return false, err
	}
	if idom[y] == -1 {
		return false, fmt.Errorf("bdag: barrier %d unreachable from initial barrier", y)
	}
	for {
		if y == x {
			return true, nil
		}
		if y == Initial {
			return false, nil
		}
		y = idom[y]
	}
}
