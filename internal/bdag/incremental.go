package bdag

import "barriermimd/internal/ir"

// Incremental maintenance (the §4.4.1 observation that inserting a barrier
// only splits region edges and adds one node). A barrier inserted into a
// schedule appears in the dag as a single new node w; on each processor
// whose timeline it lands on, the code region that previously ran between
// barriers Prev and Next is split in two, so that processor's contribution
// to edge (Prev, Next) is withdrawn and re-contributed as (Prev, w) and
// (w, Next). Everything else in the graph is untouched, so instead of
// rebuilding — and losing every memoized path query — the node/edge arrays
// are patched in place and so is the memo.
//
// The memo patch is exact because the two halves of a split sum to the
// withdrawn contribution and aggregates are maxima of contributions: every
// old path has a new path at least as long, no distance or reachability
// shrinks, and every new path runs through w. So each cached row becomes
// max(old row, paths through w), and only rows whose source reaches some
// Prev change:
//
//   - a reachability row gains reach(w), which is {w} plus the rows of the
//     splits' Nexts (exact, since no Next reaches a Prev — WouldCycle
//     refuses that insertion) and is cached as w's own row;
//   - a longest-path row gets w's value from its predecessors and a
//     max-relaxation over reach(w), w's downstream cone, in topological
//     order; a row whose source reaches no Prev just gains an Unreachable
//     entry for w;
//   - the topological order takes w right after its last predecessor when
//     that position precedes all its successors, and is recomputed
//     otherwise;
//   - dominators are recomputed only on the cone (all new paths pass
//     through w, and the only possible edge deletions — a (Prev, Next)
//     whose last contribution was withdrawn — point at a Next that w now
//     precedes), seeded with the untouched nodes' final values.
//
// Path enumerations (PathsBetween, NthPath) are not patched: those whose
// source reaches a Prev are dropped.

// NoBarrier marks the absent Next of a trailing region in a Split.
const NoBarrier = -1

// Split describes one processor's timeline around a newly inserted
// barrier: the region that ran from barrier node Prev to barrier node Next
// now passes through the new barrier, taking ToNew from Prev to it and
// FromNew from it to Next. Next is NoBarrier when the region was trailing
// (no later barrier on that processor), in which case FromNew is ignored
// and no contribution is withdrawn. The processor's previous contribution
// to (Prev, Next) is ToNew + FromNew componentwise, by construction of
// region sums.
type Split struct {
	Prev, Next     int
	ToNew, FromNew ir.Timing
}

// InsertBarrier patches a new barrier with the given participants into the
// graph, splitting one region per entry of splits, and returns the new
// node's index. The caller must ensure the mutation keeps the graph
// acyclic (WouldCycle performs exactly that check). The memo is patched
// in place; see the comment above.
func (g *Graph) InsertBarrier(participants []int, splits []Split) int {
	w := g.addNode(participants)
	for _, sp := range splits {
		g.applySplit(w, sp)
	}
	g.patchMemo(w, splits)
	return w
}

// AddBarrierAfter patches a new barrier into the graph whose only incoming
// region runs from barrier node u with time t (a trailing region: nothing
// is withdrawn), returning the new node's index. It is InsertBarrier with
// a single trailing split.
func (g *Graph) AddBarrierAfter(u int, participants []int, t ir.Timing) int {
	return g.InsertBarrier(participants, []Split{{Prev: u, Next: NoBarrier, ToNew: t}})
}

// WouldCycle reports whether inserting a barrier with the given splits
// would create a cycle. All cycles through the new node w must leave along
// some (w, Next) edge and return along some (Prev, w) edge, so the graph
// stays acyclic exactly when no Next reaches a Prev today. Queries go
// through the memoized reachability rows, so the check is O(1) when warm.
func (g *Graph) WouldCycle(splits []Split) bool {
	for _, a := range splits {
		if a.Next == NoBarrier {
			continue
		}
		for _, b := range splits {
			if g.HasPath(a.Next, b.Prev) {
				return true
			}
		}
	}
	return false
}

// applySplit patches the node/edge arrays for one split around barrier w.
// Memo maintenance happens separately in patchMemo.
func (g *Graph) applySplit(w int, sp Split) {
	if sp.Next != NoBarrier {
		old := ir.Timing{Min: sp.ToNew.Min + sp.FromNew.Min, Max: sp.ToNew.Max + sp.FromNew.Max}
		g.removeContrib(sp.Prev, sp.Next, old)
		g.addContrib(w, sp.Next, sp.FromNew)
	}
	g.addContrib(sp.Prev, w, sp.ToNew)
}

// patchMemo brings the memo up to date after the new barrier w gained
// the given splits.
func (g *Graph) patchMemo(w int, splits []Split) {
	m := &g.memo
	m.maint.Patches++

	// The Prevs are the sources of every new or changed edge ((Prev, w)
	// added, (Prev, Next) changed or removed; w's own edges are only
	// reachable through them). A row whose source reaches none of them
	// sees the mutation only as one more unreachable node.
	prevs := m.prevs[:0]
	for _, sp := range splits {
		prevs = append(prevs, sp.Prev)
	}
	m.prevs = prevs

	// Path enumerations, judged by the reachability rows: an enumeration
	// whose source u cannot reach a Prev only ever walks adjacency the
	// mutation did not touch, so its ranked prefix and generator state
	// stay exact. With no cached row for u the entry is dropped
	// conservatively rather than paying a traversal inside the patch.
	for key, e := range m.enums {
		r := m.reachRow(key.u)
		if r == nil || r.testAny(prevs) {
			m.freeEnum(e)
			delete(m.enums, key)
			m.maint.DroppedRows++
			continue
		}
		m.maint.KeptRows++
	}

	// Reachability rows gain reach(w) when their source reaches a Prev.
	// computeReach short-circuits through the Nexts' rows, which the
	// mutation leaves exact, and reach(w) is cached as w's own row.
	order := g.patchTopo(w)
	n := g.Len()
	rw := g.computeReach(w)
	for src, r := range m.reach {
		if r == nil {
			continue
		}
		m.maint.KeptRows++
		if r.testAny(prevs) {
			r = r.grow(n)
			r.or(rw)
			m.reach[src] = r
		}
	}
	m.reach = sized(m.reach, n)
	m.reach[w] = rw

	// The cone: reach(w) in topological order, w first. Without an order
	// the longest-path rows that need it are dropped instead.
	var cone []int
	if order != nil {
		cone = m.cone[:0]
		for _, x := range order[m.topoPos[w]:] {
			if rw.test(x) {
				cone = append(cone, x)
			}
		}
		m.cone = cone
	}
	for _, useMax := range [2]bool{false, true} {
		tbl := *m.distTable(useMax)
		for src, d := range tbl {
			if d == nil {
				continue
			}
			affected := false
			for _, x := range prevs {
				if d[x] != Unreachable {
					affected = true
					break
				}
			}
			if affected && order == nil {
				m.intFree = append(m.intFree, d)
				tbl[src] = nil
				m.maint.DroppedRows++
				continue
			}
			m.maint.KeptRows++
			d = append(d, Unreachable)
			if affected {
				g.relaxCone(d, cone, useMax)
			}
			tbl[src] = d
		}
	}

	g.patchDom(cone)
}

// relaxCone raises the longest-path row d, already extended by an entry
// for the cone's first node w, to its post-insertion value: w's distance
// over its predecessors, then a max-relaxation of the cone's out-edges in
// topological order. Aggregated edge weights are used throughout — two
// splits can share one Prev, and the aggregate is what a fresh
// computation would read.
func (g *Graph) relaxCone(d, cone []int, useMax bool) {
	w := cone[0]
	for _, u := range g.in[w] {
		if d[u] == Unreachable {
			continue
		}
		a := &g.out[u]
		k, _ := a.find(w)
		if c := d[u] + weight(a.agg[k], useMax); c > d[w] {
			d[w] = c
		}
	}
	for _, x := range cone {
		if d[x] == Unreachable {
			continue
		}
		a := &g.out[x]
		for k, v := range a.to {
			if c := d[x] + weight(a.agg[k], useMax); c > d[v] {
				d[v] = c
			}
		}
	}
}

// patchTopo keeps the cached topological order valid after the new
// barrier w gained its edges and returns it, or nil when no valid order
// is cached. When every predecessor position precedes every successor
// position, w slots in right after its last predecessor and the position
// index shifts past it; otherwise the order is recomputed.
func (g *Graph) patchTopo(w int) []int {
	m := &g.memo
	if !m.topoSet {
		return nil
	}
	if m.topoErr != nil {
		// A cached cycle error cannot be patched; recompute lazily.
		m.topoSet, m.topo, m.topoErr = false, nil, nil
		return nil
	}
	pos := m.topoPos
	maxPred, minSucc := -1, len(m.topo)
	for _, u := range g.in[w] {
		maxPred = max(maxPred, pos[u])
	}
	for _, v := range g.out[w].to {
		minSucc = min(minSucc, pos[v])
	}
	if maxPred >= minSucc {
		m.intFree = append(m.intFree, m.topo)
		g.recomputeTopo()
		if m.topoErr != nil {
			return nil
		}
		return m.topo
	}
	k := maxPred + 1
	order := append(m.topo, 0)
	copy(order[k+1:], order[k:])
	order[k] = w
	m.topo = order
	pos = append(pos, 0)
	for i := k; i < len(order); i++ {
		pos[order[i]] = i
	}
	m.topoPos = pos
	return order
}

// patchDom recomputes immediate dominators on the cone, in place,
// keeping every other node's value; a nil cone (no valid cached order)
// drops them instead.
func (g *Graph) patchDom(cone []int) {
	m := &g.memo
	if !m.idomSet {
		return
	}
	if m.idomErr != nil || cone == nil {
		m.idomSet, m.idom, m.idomErr = false, nil, nil
		return
	}
	idom := append(m.idom, -1)
	for _, v := range cone {
		idom[v] = -1
	}
	g.refineDominators(cone, idom)
	m.idom = idom
}
