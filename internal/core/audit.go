package core

import (
	"fmt"

	"barriermimd/internal/bdag"
)

// auditState verifies the incrementally maintained scheduler state — the
// patched barrier dag, its id-to-node map, and the per-processor timeline
// state — against a from-scratch rebuild. Enabled by the selfCheck test
// option after every patch; the differential tests lean on it to prove
// that incremental maintenance and wholesale rebuilding are
// indistinguishable.
func (s *scheduler) auditState() error {
	fresh, fnode, err := buildBarrierGraphDense(s.procs, s.parts, s.g.Time)
	if err != nil {
		return fmt.Errorf("core: audit rebuild failed: %w", err)
	}
	if err := equalGraphs(s.bg, fresh); err != nil {
		return fmt.Errorf("core: incremental bdag diverged from rebuild: %w", err)
	}
	for id, n := range fnode {
		if n >= 0 && s.bnode[id] != n {
			return fmt.Errorf("core: barrier %d maps to node %d, rebuild says %d", id, s.bnode[id], n)
		}
	}
	for p := range s.procs {
		st := s.state(p)
		want := buildProcState(s.procs[p], s.g.Time)
		if err := equalProcState(st, &want); err != nil {
			return fmt.Errorf("core: timeline state for processor %d diverged: %w", p, err)
		}
		for k, it := range s.procs[p] {
			if !it.IsBarrier && s.nodeIdx[it.Node] != k {
				return fmt.Errorf("core: nodeIdx[%d] = %d, timeline says %d", it.Node, s.nodeIdx[it.Node], k)
			}
		}
	}
	return nil
}

// equalGraphs compares two barrier dags structurally: node count and
// participants, edge sets with timings, dominator trees, fire windows,
// and the reachability and longest min/max path rows from every barrier
// (the common-dominator rows checkPair reads, not only the initial
// barrier's).
func equalGraphs(got, want *bdag.Graph) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("node count %d vs %d", got.Len(), want.Len())
	}
	for b := 0; b < want.Len(); b++ {
		gp, wp := got.Participants(b), want.Participants(b)
		if len(gp) != len(wp) {
			return fmt.Errorf("node %d participants %v vs %v", b, gp, wp)
		}
		for k := range wp {
			if gp[k] != wp[k] {
				return fmt.Errorf("node %d participants %v vs %v", b, gp, wp)
			}
		}
	}
	ge, we := got.Edges(), want.Edges()
	if len(ge) != len(we) {
		return fmt.Errorf("edge count %d vs %d", len(ge), len(we))
	}
	for k, e := range we {
		if ge[k] != e {
			return fmt.Errorf("edge %d is %v vs %v", k, ge[k], e)
		}
		gt, _ := got.EdgeTiming(e.From, e.To)
		wt, _ := want.EdgeTiming(e.From, e.To)
		if gt != wt {
			return fmt.Errorf("edge %v timing %v vs %v", e, gt, wt)
		}
	}
	gd, gerr := got.Dominators()
	wd, werr := want.Dominators()
	if (gerr == nil) != (werr == nil) {
		return fmt.Errorf("dominator errors %v vs %v", gerr, werr)
	}
	for b := range wd {
		if gd[b] != wd[b] {
			return fmt.Errorf("idom[%d] = %d vs %d", b, gd[b], wd[b])
		}
	}
	gmin, gmax, gerr := got.FireWindows()
	wmin, wmax, werr := want.FireWindows()
	if (gerr == nil) != (werr == nil) {
		return fmt.Errorf("fire-window errors %v vs %v", gerr, werr)
	}
	for b := range wmin {
		if gmin[b] != wmin[b] || gmax[b] != wmax[b] {
			return fmt.Errorf("fire window of %d is [%d,%d] vs [%d,%d]", b, gmin[b], gmax[b], wmin[b], wmax[b])
		}
	}
	for u := 0; u < want.Len(); u++ {
		for v := 0; v < want.Len(); v++ {
			if gp, wp := got.HasPath(u, v), want.HasPath(u, v); gp != wp {
				return fmt.Errorf("HasPath(%d,%d) = %v vs %v", u, v, gp, wp)
			}
		}
		for _, useMax := range []bool{false, true} {
			gd, gerr := got.LongestFrom(u, useMax)
			wd, werr := want.LongestFrom(u, useMax)
			if (gerr == nil) != (werr == nil) {
				return fmt.Errorf("LongestFrom(%d,%v) errors %v vs %v", u, useMax, gerr, werr)
			}
			if err := equalInts(fmt.Sprintf("LongestFrom(%d,%v)", u, useMax), gd, wd); err != nil {
				return err
			}
		}
	}
	return nil
}

// equalProcState compares two timeline states field by field.
func equalProcState(got, want *procState) error {
	if got.lastNode != want.lastNode {
		return fmt.Errorf("lastNode %d vs %d", got.lastNode, want.lastNode)
	}
	if err := equalInts("prefMin", got.prefMin, want.prefMin); err != nil {
		return err
	}
	if err := equalInts("prefMax", got.prefMax, want.prefMax); err != nil {
		return err
	}
	return equalInts("barPos", got.barPos, want.barPos)
}

func equalInts(name string, got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s length %d vs %d", name, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			return fmt.Errorf("%s[%d] = %d vs %d", name, k, got[k], want[k])
		}
	}
	return nil
}
