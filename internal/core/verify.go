package core

import (
	"fmt"

	"barriermimd/internal/bdag"
)

// VerifyStatic re-proves, on the finished schedule, that every
// producer/consumer dependence is satisfied: same-processor pairs by
// program order, and cross-processor pairs either by a barrier chain
// (section 4.4.1 step [1]) or by the static timing check relative to the
// pair's common dominating barrier (steps [2]–[5], including the section
// 4.4.2 overlap refinement when the schedule was built with optimal
// insertion). It is an independent auditor for the scheduler: a correct
// schedule always passes, regardless of which insertions, repairs, and
// merges produced it.
func (s *Schedule) VerifyStatic() error {
	if err := s.Validate(); err != nil {
		return err
	}
	// Rebuild the barrier dag from the timelines instead of trusting the
	// cached one, so the auditor stays independent of scheduler state.
	barriers, barrierNode, err := buildBarrierGraphDense(s.Procs, s.Participants, s.Graph.Time)
	if err != nil {
		return err
	}
	pos := make(map[int]int, s.Graph.N)
	for _, tl := range s.Procs {
		for k, it := range tl {
			if !it.IsBarrier {
				pos[it.Node] = k
			}
		}
	}
	lastBar := func(p, idx int) (int, int) {
		for k := idx - 1; k >= 0; k-- {
			if s.Procs[p][k].IsBarrier {
				return s.Procs[p][k].Barrier, k + 1
			}
		}
		return InitialBarrier, 0
	}
	nextBar := func(p, idx int) int {
		for k := idx; k < len(s.Procs[p]); k++ {
			if s.Procs[p][k].IsBarrier {
				return s.Procs[p][k].Barrier
			}
		}
		return -1
	}
	delta := func(p, from, to int, useMax bool) int {
		sum := 0
		for k := from; k < to; k++ {
			it := s.Procs[p][k]
			if it.IsBarrier {
				continue
			}
			t := s.Graph.Time[it.Node]
			if useMax {
				sum += t.Max
			} else {
				sum += t.Min
			}
		}
		return sum
	}

	for _, e := range s.Graph.RealEdges() {
		g, i := e.From, e.To
		P, C := s.AssignTo[g], s.AssignTo[i]
		if P == C {
			continue // Validate already checked program order
		}
		gi, ii := pos[g], pos[i]
		lgID, lgStart := lastBar(P, gi)
		liID, liStart := lastBar(C, ii)
		lg, li := barrierNode[lgID], barrierNode[liID]

		if nb := nextBar(P, gi+1); nb >= 0 && barriers.HasPath(barrierNode[nb], li) {
			continue // ordered by a barrier chain
		}

		cd, err := barriers.CommonDominator(lg, li)
		if err != nil {
			return fmt.Errorf("core: pair (%d,%d): %w", g, i, err)
		}
		distMax, err := barriers.LongestFrom(cd, true)
		if err != nil {
			return err
		}
		distMin, err := barriers.LongestFrom(cd, false)
		if err != nil {
			return err
		}
		tMaxG := distMax[lg] + delta(P, lgStart, gi+1, true)
		tMinI := distMin[li] + delta(C, liStart, ii, false)
		if s.Opts.Insertion != Naive && tMinI >= tMaxG {
			continue // timing-resolved
		}

		if s.Opts.Insertion == Optimal {
			ok, err := verifyOptimalPair(barriers, s.Opts.PathLimit, cd, lg, li,
				delta(P, lgStart, gi+1, true), delta(C, liStart, ii, false), tMinI)
			if err != nil {
				return err
			}
			if ok {
				continue
			}
		}
		return fmt.Errorf("core: cross-processor pair (%d,%d) is neither barrier-ordered nor timing-resolved (T_max(g)=%d, T_min(i-)=%d)",
			g, i, tMaxG, tMinI)
	}
	return nil
}

// verifyOptimalPair re-runs the section 4.4.2 overlap refinement, pulling
// paths from the same lazy ψ^j_max ranking the scheduler consults so the
// two can never disagree about path order.
func verifyOptimalPair(barriers *bdag.Graph, limit, cd, lg, li, dMaxG, dMinI, plainMin int) (bool, error) {
	if limit <= 0 {
		limit = 64
	}
	var sc bdag.Scratch
	for j := 0; j < limit; j++ {
		path, plen, ok := barriers.NthPath(cd, lg, j)
		if !ok {
			break
		}
		lj := plen + dMaxG
		if lj <= plainMin {
			return true, nil
		}
		starMin, err := barriers.LongestMinForcedPath(cd, li, path, &sc)
		if err != nil {
			return false, err
		}
		if starMin == bdag.Unreachable || lj > starMin+dMinI {
			return false, nil
		}
	}
	return true, nil
}
