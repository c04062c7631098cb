package bdag

import "barriermimd/internal/metrics"

// The scheduler issues the same path queries many times between barrier
// mutations: every producer/consumer check walks longest paths from its
// common dominator, every insertion re-verifies all pending pairs through
// HasPath, and the optimal inserter ranks k-longest paths. All of these
// are memoized here. Construction-time mutations (AddBarrier, AddRegion)
// invalidate wholesale; InsertBarrier (incremental.go) patches every
// reachability, longest-path, order and dominator row to its
// post-insertion value and drops only the path enumerations the new node
// can touch. Repeated queries then cost O(1) instead of a fresh traversal
// — across mutations, not just between them.
//
// Cached results (topological orders, distance vectors, dominators, path
// lists) are returned as shared slices; callers must treat them as
// read-only. A returned row is valid until the graph's next mutation,
// which may patch it in place, grow it, or recycle its storage: read it
// at once or copy it. Every query can fill the memo, so a graph belongs
// to one goroutine — the scheduler's, or an auditor's private rebuild.

// pathKey identifies one lazy path enumeration.
type pathKey struct {
	u, v int
}

// memo holds the per-graph query caches.
type memo struct {
	topoSet bool
	topo    []int
	topoErr error
	// topoPos[v] is v's index in topo, kept alongside it while topo is set
	// without error: the order patch and the dominator walk read it.
	topoPos []int

	idomSet bool
	idom    []int
	idomErr error

	// reach[u] is the word-packed reachability set of u, and dmin[u] and
	// dmax[u] are u's LongestFrom rows under minimum and maximum weights;
	// nil when not cached. Indexed densely by source so a patch walks
	// them without a map and a drop nils the entry in place.
	reach      []bitset
	dmin, dmax [][]int
	enums      map[pathKey]*pathEnum

	// stack, prevs, and cone are traversal scratch reused by the
	// compute/patch helpers.
	stack []int
	prevs []int
	cone  []int

	// intFree, bsFree, and enumFree are freelists of dead memo state, fed
	// by reset when an arena graph starts a new generation (and by the
	// patch helpers for rows they replace or drop) and drained by the
	// compute helpers.
	intFree  [][]int
	bsFree   []bitset
	enumFree []*pathEnum

	stats metrics.CacheStats
	maint metrics.MaintStats
}

// invalidate drops every cached query result. Counters survive: they
// describe the graph's lifetime, not one generation. Row tables keep
// their backing storage so construction-time rebuild loops do not
// reallocate them per mutation.
func (m *memo) invalidate() {
	m.topoSet, m.topo, m.topoErr = false, nil, nil
	m.idomSet, m.idom, m.idomErr = false, nil, nil
	clear(m.reach)
	m.reach = m.reach[:0]
	clear(m.dmin)
	m.dmin = m.dmin[:0]
	clear(m.dmax)
	m.dmax = m.dmax[:0]
	for k, e := range m.enums {
		m.freeEnum(e)
		delete(m.enums, k)
	}
}

// reset prepares the memo for an arena graph's next generation: caches
// are dropped as in invalidate, but every cached row is parked on a
// freelist for the next generation's computations to reclaim (safe only
// because Graph.Reset declares all outstanding views dead), and the
// lifetime counters restart — the caller harvests them first.
func (m *memo) reset() {
	if m.topo != nil {
		m.intFree = append(m.intFree, m.topo)
	}
	if m.idom != nil {
		m.intFree = append(m.intFree, m.idom)
	}
	for _, tbl := range [2][][]int{m.dmin, m.dmax} {
		for i, d := range tbl {
			if d != nil {
				m.intFree = append(m.intFree, d)
				tbl[i] = nil
			}
		}
	}
	m.dmin, m.dmax = m.dmin[:0], m.dmax[:0]
	for i, r := range m.reach {
		if r != nil {
			m.bsFree = append(m.bsFree, r)
			m.reach[i] = nil
		}
	}
	m.reach = m.reach[:0]
	m.topoSet, m.topo, m.topoErr = false, nil, nil
	m.idomSet, m.idom, m.idomErr = false, nil, nil
	for k, e := range m.enums {
		m.freeEnum(e)
		delete(m.enums, k)
	}
	m.stats = metrics.CacheStats{}
	m.maint = metrics.MaintStats{}
}

// freeEnum parks a dead path enumeration for reuse. The materialized
// paths and the slice-of-paths backing escaped to callers (PathsBetween
// returns e.paths sub-slices, NthPath returns its elements) and are left
// to the garbage collector; the generator arena, the length table, and
// the entry struct itself are private to the package and recycled.
func (m *memo) freeEnum(e *pathEnum) {
	e.g = nil
	e.paths = nil
	e.lens = e.lens[:0]
	e.started, e.done = false, false
	m.enumFree = append(m.enumFree, e)
}

// grabInts returns a length-n []int recycled from the freelist when
// possible (contents undefined). Fresh rows carry
// slack beyond n: the graph gains one node per inserted barrier, which a
// patched row absorbs in place, and an exact-size row harvested from
// generation g would be too small for every generation after g, so the
// freelist would never hit.
func (m *memo) grabInts(n int) []int {
	for len(m.intFree) > 0 {
		d := m.intFree[len(m.intFree)-1]
		m.intFree = m.intFree[:len(m.intFree)-1]
		if cap(d) >= n {
			return d[:n]
		}
	}
	return make([]int, n, n+rowSlack)
}

// rowSlack is the extra capacity grabInts and grabBitset leave on fresh
// rows so they keep serving as the graph grows.
const rowSlack = 64

// grabBitset returns a zeroed bitset able to hold nodes [0, n), recycled
// from the freelist when possible. Fresh bitsets
// carry word slack for the same reason grabInts does.
func (m *memo) grabBitset(n int) bitset {
	words := (n + 63) >> 6
	for len(m.bsFree) > 0 {
		b := m.bsFree[len(m.bsFree)-1]
		m.bsFree = m.bsFree[:len(m.bsFree)-1]
		if cap(b) >= words {
			b = b[:words]
			clear(b)
			return b
		}
	}
	return make(bitset, words, words+rowSlack/64+1)
}

// CacheStats returns the accumulated hit/miss counters of the graph's
// memoized path queries (Topo, Dominators, LongestFrom, HasPath, and the
// per-pair path enumerations behind PathsBetween/NthPath).
func (g *Graph) CacheStats() metrics.CacheStats { return g.memo.stats }

// MaintStats returns the accumulated incremental-maintenance counters:
// how many mutations were patched in place and how many memo rows each
// patch kept versus dropped.
func (g *Graph) MaintStats() metrics.MaintStats { return g.memo.maint }

// recomputeTopo caches a freshly computed order together with its
// position index.
func (g *Graph) recomputeTopo() {
	m := &g.memo
	m.topo, m.topoErr = g.computeTopo()
	m.topoSet = true
	if m.topoErr != nil {
		return
	}
	if cap(m.topoPos) < len(m.topo) {
		m.topoPos = make([]int, len(m.topo), len(m.topo)+rowSlack)
	}
	m.topoPos = m.topoPos[:len(m.topo)]
	for k, v := range m.topo {
		m.topoPos[v] = k
	}
}

// reachSet returns the cached reachability set of u (reachSet(u).test(v)
// reports whether v is reachable from u, with u itself included).
func (g *Graph) reachSet(u int) bitset {
	m := &g.memo
	m.reach = sized(m.reach, g.Len())
	if r := m.reach[u]; r != nil {
		m.stats.Hits++
		return r
	}
	m.stats.Misses++
	r := g.computeReach(u)
	m.reach[u] = r
	return r
}

// reachRow returns the cached reachability row of u without computing it
// (nil when absent).
func (m *memo) reachRow(u int) bitset {
	if u < len(m.reach) {
		return m.reach[u]
	}
	return nil
}

// sized returns table extended with nil rows to n entries.
func sized[T any](table []T, n int) []T {
	if n <= len(table) {
		return table
	}
	return append(table, make([]T, n-len(table))...)
}

// distTable returns the LongestFrom row table for one weight choice.
func (m *memo) distTable(useMax bool) *[][]int {
	if useMax {
		return &m.dmax
	}
	return &m.dmin
}

// enumFor returns the lazy path enumeration for (u, v), creating it if
// absent.
func (g *Graph) enumFor(u, v int) *pathEnum {
	m := &g.memo
	if m.enums == nil {
		m.enums = make(map[pathKey]*pathEnum)
	}
	e, ok := m.enums[pathKey{u, v}]
	if !ok {
		if n := len(m.enumFree); n > 0 {
			e = m.enumFree[n-1]
			m.enumFree = m.enumFree[:n-1]
		} else {
			e = &pathEnum{}
		}
		e.g, e.u, e.v = g, u, v
		m.enums[pathKey{u, v}] = e
		m.stats.Misses++
	} else {
		m.stats.Hits++
	}
	return e
}
