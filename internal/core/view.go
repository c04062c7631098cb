package core

import (
	"sort"

	"barriermimd/internal/bdag"
	"barriermimd/internal/ir"
)

// BarrierView is the barrier dag of a finished schedule (section 3.1,
// Figs. 10 and 13), frozen and indexed by schedule-level barrier id: each
// barrier's fire window and its successors with the [min,max] region time
// of the edge to each. Rows of merged-away ids are empty. A view never
// changes once ScheduleDAG returns it, so any number of goroutines may
// read it; the slices it returns are shared and must not be modified.
type BarrierView struct {
	fmin, fmax []int
	// succ[succStart[id]:succStart[id+1]] are id's successors in
	// ascending id order; timing holds the edge to each.
	succStart []int
	succ      []int
	timing    []ir.Timing
}

// FireWindows returns, indexed by barrier id, every barrier's earliest
// and latest firing time relative to the initial barrier (zero for
// merged-away ids).
func (v *BarrierView) FireWindows() (min, max []int) { return v.fmin, v.fmax }

// Succs returns the successors of barrier id in ascending id order.
func (v *BarrierView) Succs(id int) []int {
	lo, hi := v.succStart[id], v.succStart[id+1]
	return v.succ[lo:hi:hi]
}

// EdgeTiming returns the aggregated region time of edge (u,w) and whether
// the edge exists.
func (v *BarrierView) EdgeTiming(u, w int) (ir.Timing, bool) {
	lo := v.succStart[u]
	succs := v.Succs(u)
	if k := sort.SearchInts(succs, w); k < len(succs) && succs[k] == w {
		return v.timing[lo+k], true
	}
	return ir.Timing{}, false
}

// Edges returns every edge sorted by (From, To) id.
func (v *BarrierView) Edges() []bdag.Edge {
	out := make([]bdag.Edge, 0, len(v.succ))
	for u := 0; u+1 < len(v.succStart); u++ {
		for _, w := range v.Succs(u) {
			out = append(out, bdag.Edge{From: u, To: w})
		}
	}
	return out
}

// freezeBarriers copies the final barrier dag into the id-indexed view a
// Schedule keeps, so the live graph can go back to the pooled arena.
// The graph numbers its nodes in ascending live-id order (rebuilds assign
// them that way and insertions append ever larger ids), so mapping each
// node's sorted successor list to ids keeps it sorted.
func (s *scheduler) freezeBarriers() (BarrierView, error) {
	fmin, fmax, err := s.bg.FireWindows()
	if err != nil {
		return BarrierView{}, err
	}
	n := len(s.parts)
	node2id := resizeInts(s.sc.ids, s.bg.Len())
	s.sc.ids = node2id
	edges := 0
	for id, ps := range s.parts {
		if ps != nil {
			node2id[s.bnode[id]] = id
			edges += len(s.bg.Succs(s.bnode[id]))
		}
	}
	fire := make([]int, 2*n)
	v := BarrierView{
		fmin:      fire[:n:n],
		fmax:      fire[n:],
		succStart: make([]int, n+1),
		succ:      make([]int, 0, edges),
		timing:    make([]ir.Timing, 0, edges),
	}
	for id, ps := range s.parts {
		v.succStart[id] = len(v.succ)
		if ps == nil {
			continue
		}
		u := s.bnode[id]
		v.fmin[id], v.fmax[id] = fmin[u], fmax[u]
		for _, w := range s.bg.Succs(u) {
			t, _ := s.bg.EdgeTiming(u, w)
			v.succ = append(v.succ, node2id[w])
			v.timing = append(v.timing, t)
		}
	}
	v.succStart[n] = len(v.succ)
	return v, nil
}
