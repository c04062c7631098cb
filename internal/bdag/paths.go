package bdag

// Path is a barrier sequence from some u to some v along dag edges.
type Path []int

// appendEdges appends the path's edges to buf and returns it, in path
// order. Callers that probe membership repeatedly should keep the buffer
// sorted themselves or use the forced-successor scratch of
// LongestMinForcedPath, which needs no edge set at all.
func (p Path) appendEdges(buf []Edge) []Edge {
	for i := 0; i+1 < len(p); i++ {
		buf = append(buf, Edge{p[i], p[i+1]})
	}
	return buf
}

// MaxLen returns the path length under maximum edge weights.
func (g *Graph) MaxLen(p Path) int {
	sum := 0
	for i := 0; i+1 < len(p); i++ {
		t, ok := g.EdgeTiming(p[i], p[i+1])
		if !ok {
			return Unreachable
		}
		sum += t.Max
	}
	return sum
}

// PathsBetween returns up to limit paths from u to v, ordered by
// decreasing maximum-weight length — the ψ_max ≥ ψ²_max ≥ ψ³_max ≥ ...
// sequence of section 4.4.2 (ties in DFS discovery order, i.e. ascending
// lexicographic by barrier index). Enumeration is lazy and memoized per
// (u, v): only the longest `limit` paths are ever materialized, and a
// later call with a larger limit resumes the ranking where the previous
// one stopped. The result is shared; do not modify.
func (g *Graph) PathsBetween(u, v int, limit int) []Path {
	if limit <= 0 {
		limit = 64
	}
	e := g.enumFor(u, v)
	e.fill(limit)
	n := min(limit, len(e.paths))
	return e.paths[:n:n]
}

// NthPath returns the k-th longest path from u to v (0-indexed, the
// ψ^(k+1)_max path of section 4.4.2) together with its maximum-weight
// length, or ok == false when fewer than k+1 paths exist. Paths are
// generated on demand in decreasing length order and memoized, so a
// caller that converges after inspecting j paths pays for exactly j.
// The returned path is shared; do not modify.
func (g *Graph) NthPath(u, v, k int) (p Path, maxLen int, ok bool) {
	e := g.enumFor(u, v)
	e.fill(k + 1)
	if k >= len(e.paths) {
		return nil, 0, false
	}
	return e.paths[k], e.lens[k], true
}

// pathEnum is the memoized enumeration state of one (u, v) pair: the
// ranked prefix materialized so far plus the generator that can extend
// it.
type pathEnum struct {
	g     *Graph
	u, v  int
	paths []Path
	lens  []int
	gen   *pathGen
	// started/done bracket the generator's lifetime: before started the
	// generator is not yet built, after done it is exhausted and freed.
	started, done bool
}

// fill extends the materialized prefix to n paths (or exhaustion). The
// generator arena sticks to the entry even
// after exhaustion, so a recycled entry restarts without reallocating
// its tree, heap, or distance vector.
func (e *pathEnum) fill(n int) {
	if !e.started {
		e.gen = e.gen.init(e.g, e.u, e.v)
		e.started = true
	}
	for !e.done && len(e.paths) < n {
		p, l, ok := e.gen.next()
		if !ok {
			e.done = true
			break
		}
		e.paths = append(e.paths, p)
		e.lens = append(e.lens, l)
	}
}

// pathGen lazily enumerates u→v paths in decreasing maximum-weight order
// by best-first expansion of partial paths. Every partial path is scored
// with its exact best completion — the longest max-weight distance from
// its tip to v, computed once up front — so a completed path surfaces
// exactly when no pending partial path can beat it: paths pop in true
// ψ_max ≥ ψ²_max ≥ ... order without enumerating the exponential tail
// the old bounded-exhaustive DFS paid for. Length ties break by
// ascending lexicographic barrier sequence, matching DFS discovery order
// over sorted adjacency.
type pathGen struct {
	g       *Graph
	v       int
	distTo  []int // longest max-weight completion x→v; Unreachable prunes
	distBuf []int // backing storage for distTo, kept across re-inits

	// nodes is the partial-path tree arena: each entry extends its parent
	// by one barrier, so a heap entry is one int32 and materializing a
	// path is a parent walk.
	nodes []genNode
	heap  []int32 // arena indices, max-ordered by (bound, lex asc)

	sa, sb []int // lex-comparison scratch
}

// genNode is one partial path in the generator's tree arena.
type genNode struct {
	x      int32 // tip barrier
	parent int32 // arena index of the prefix, -1 at the root
	len    int   // ψ_max length of the partial path
	bound  int   // len + distTo[x]: exact best completion through x
}

// init (re)builds the generator, reusing the receiver's arena when
// non-nil. A graph with no u→v path (or a cyclic graph, which indicates
// a scheduler bug upstream) yields nothing.
func (pg *pathGen) init(g *Graph, u, v int) *pathGen {
	if pg == nil {
		pg = &pathGen{}
	}
	pg.g, pg.v = g, v
	pg.nodes = pg.nodes[:0]
	pg.heap = pg.heap[:0]
	pg.distTo = nil
	order, err := g.Topo()
	if err != nil {
		return pg
	}
	n := g.Len()
	if u >= n || v >= n {
		return pg
	}
	dist := pg.distBuf
	if cap(dist) < n {
		dist = make([]int, n, n+rowSlack)
		pg.distBuf = dist
	}
	dist = dist[:n]
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[v] = 0
	for k := len(order) - 1; k >= 0; k-- {
		x := order[k]
		if x == v {
			continue
		}
		a := &g.out[x]
		best := Unreachable
		for j, s := range a.to {
			if dist[s] == Unreachable {
				continue
			}
			if d := a.agg[j].Max + dist[s]; d > best {
				best = d
			}
		}
		dist[x] = best
	}
	pg.distTo = dist
	if dist[u] == Unreachable {
		return pg
	}
	pg.nodes = append(pg.nodes, genNode{x: int32(u), parent: -1, len: 0, bound: dist[u]})
	pg.heap = append(pg.heap, 0)
	return pg
}

// next yields the next path in decreasing maximum-weight order, or
// ok == false when the ranking is exhausted.
func (pg *pathGen) next() (p Path, maxLen int, ok bool) {
	for len(pg.heap) > 0 {
		idx := pg.pop()
		nd := pg.nodes[idx]
		if int(nd.x) == pg.v {
			return pg.materialize(idx), nd.len, true
		}
		a := &pg.g.out[nd.x]
		for j, s := range a.to {
			if pg.distTo[s] == Unreachable {
				continue
			}
			l := nd.len + a.agg[j].Max
			pg.nodes = append(pg.nodes, genNode{
				x: int32(s), parent: idx, len: l, bound: l + pg.distTo[s],
			})
			pg.push(int32(len(pg.nodes) - 1))
		}
	}
	return nil, 0, false
}

// materialize walks the parent chain into a fresh Path.
func (pg *pathGen) materialize(idx int32) Path {
	depth := 0
	for i := idx; i >= 0; i = pg.nodes[i].parent {
		depth++
	}
	p := make(Path, depth)
	for i := idx; i >= 0; i = pg.nodes[i].parent {
		depth--
		p[depth] = int(pg.nodes[i].x)
	}
	return p
}

// writeSeq fills buf with the partial path's barrier sequence.
func (pg *pathGen) writeSeq(idx int32, buf []int) []int {
	depth := 0
	for i := idx; i >= 0; i = pg.nodes[i].parent {
		depth++
	}
	if cap(buf) < depth {
		buf = make([]int, depth)
	}
	buf = buf[:depth]
	for i := idx; i >= 0; i = pg.nodes[i].parent {
		depth--
		buf[depth] = int(pg.nodes[i].x)
	}
	return buf
}

// before reports whether partial path a must pop before b: strictly
// greater bound first, then ascending lexicographic barrier sequence so
// equal-length paths keep the DFS discovery order the eager enumeration
// used to produce.
func (pg *pathGen) before(a, b int32) bool {
	na, nb := &pg.nodes[a], &pg.nodes[b]
	if na.bound != nb.bound {
		return na.bound > nb.bound
	}
	pg.sa = pg.writeSeq(a, pg.sa)
	pg.sb = pg.writeSeq(b, pg.sb)
	for i := 0; i < len(pg.sa) && i < len(pg.sb); i++ {
		if pg.sa[i] != pg.sb[i] {
			return pg.sa[i] < pg.sb[i]
		}
	}
	return len(pg.sa) < len(pg.sb)
}

// push adds an arena index to the heap.
func (pg *pathGen) push(n int32) {
	pg.heap = append(pg.heap, n)
	i := len(pg.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !pg.before(pg.heap[i], pg.heap[p]) {
			break
		}
		pg.heap[i], pg.heap[p] = pg.heap[p], pg.heap[i]
		i = p
	}
}

// pop removes and returns the best heap entry.
func (pg *pathGen) pop() int32 {
	top := pg.heap[0]
	last := len(pg.heap) - 1
	pg.heap[0] = pg.heap[last]
	pg.heap = pg.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < last && pg.before(pg.heap[l], pg.heap[best]) {
			best = l
		}
		if r < last && pg.before(pg.heap[r], pg.heap[best]) {
			best = r
		}
		if best == i {
			break
		}
		pg.heap[i], pg.heap[best] = pg.heap[best], pg.heap[i]
		i = best
	}
	return top
}

// Scratch holds reusable buffers for the allocation-sensitive query
// paths (currently LongestMinForcedPath). A Scratch belongs to one
// calling goroutine; the zero value is ready to use.
type Scratch struct {
	dist []int
	next []int32 // forced successor per barrier; -1 between calls
}

// grow sizes the buffers for a graph of n barriers, preserving the
// all-minus-one invariant of next.
func (sc *Scratch) grow(n int) {
	if cap(sc.dist) < n {
		sc.dist = make([]int, n)
		sc.next = make([]int32, n)
		for i := range sc.next {
			sc.next[i] = -1
		}
		return
	}
	if len(sc.dist) < n {
		old := len(sc.next)
		sc.dist = sc.dist[:n]
		sc.next = sc.next[:n]
		for i := old; i < n; i++ {
			sc.next[i] = -1
		}
	}
}

// LongestMinForcedPath computes the longest path from u to v using
// minimum edge weights, except that the edges of path use their maximum
// weight — the ψ*_min computation of section 4.4.2 for one ψ^j_max path
// (edges overlapping the producer's path are assumed to take maximum
// time). Returns Unreachable if v is not reachable from u. It is
// allocation-free for the optimal inserter's hot loop: sc provides the
// distance vector and the forced-successor marks, and a path visits each
// barrier at most once, so membership is a single indexed load instead of
// a map probe.
func (g *Graph) LongestMinForcedPath(u, v int, path Path, sc *Scratch) (int, error) {
	order, err := g.Topo()
	if err != nil {
		return 0, err
	}
	n := g.Len()
	sc.grow(n)
	dist := sc.dist[:n]
	for i := range dist {
		dist[i] = Unreachable
	}
	for i := 0; i+1 < len(path); i++ {
		sc.next[path[i]] = int32(path[i+1])
	}
	dist[u] = 0
	for _, x := range order {
		if dist[x] == Unreachable {
			continue
		}
		a := &g.out[x]
		for k, s := range a.to {
			w := a.agg[k].Min
			if sc.next[x] == int32(s) {
				w = a.agg[k].Max
			}
			if d := dist[x] + w; d > dist[s] {
				dist[s] = d
			}
		}
	}
	for i := 0; i+1 < len(path); i++ {
		sc.next[path[i]] = -1
	}
	return dist[v], nil
}
