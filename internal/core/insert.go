package core

import (
	"errors"
	"fmt"
	"time"

	"barriermimd/internal/bdag"
	"barriermimd/internal/ir"
	"barriermimd/internal/obsv"
)

// errWouldCycle rejects a tentative barrier placement that would create a
// cycle in the barrier dag.
var errWouldCycle = errors.New("core: barrier placement would create a cycle")

// checkOutcome classifies how a cross-processor producer/consumer pair is
// satisfied.
type checkOutcome uint8

const (
	// chkPath: an existing barrier chain already orders producer before
	// consumer (section 4.4.1 step [1]).
	chkPath checkOutcome = iota
	// chkTiming: the static timing constraints resolve the pair (steps
	// [2]–[5], possibly via the optimal refinement).
	chkTiming
	// chkBarrier: a barrier must be inserted (step [6]).
	chkBarrier
)

// pairTiming carries the intermediate quantities of the section 4.4.1
// check, reused by barrier placement.
type pairTiming struct {
	cd      int // common dominator (bdag node)
	lg, li  int // LastBar(g), LastBar(i) as bdag nodes
	tMaxG   int // T_max(g): worst-case producer finish relative to cd
	tMinI   int // T_min(i⁻): best-case consumer start relative to cd
	tMaxI   int // T_max(i⁻): worst-case consumer start relative to cd
	rescued bool
}

// resolvePair classifies the pair (g producer, i consumer, on different
// processors) and inserts a barrier when required, followed by SBM merging
// and re-verification of previously timing-resolved pairs.
func (s *scheduler) resolvePair(g, i int) error {
	outcome, pt, err := s.checkPair(g, i)
	if err != nil {
		return err
	}
	switch outcome {
	case chkPath:
		s.mx.PathResolved++
	case chkTiming:
		s.mx.TimingResolved++
		if pt.rescued {
			s.mx.OptimalRescues++
		}
		if pt.cd != bdag.Initial {
			s.mx.StaticAfterBarrier++
		}
		s.timingPairs = append(s.timingPairs, pairRec{g, i})
	case chkBarrier:
		if err := s.insertBarrier(g, i, pt); err != nil {
			return err
		}
		if s.opts.Machine == SBM {
			if err := s.mergePass(); err != nil {
				return err
			}
		}
		if err := s.verifyRepair(); err != nil {
			return err
		}
	}
	return nil
}

// checkPair runs steps [1]–[5] of the conservative insertion algorithm
// (and, under Options.Insertion == Optimal, the section 4.4.2 refinement).
// Both g and i must already be placed.
func (s *scheduler) checkPair(g, i int) (checkOutcome, pairTiming, error) {
	if err := s.ensureGraph(); err != nil {
		return 0, pairTiming{}, err
	}
	P, C := s.assign[g], s.assign[i]
	gi, ii := s.nodeIdx[g], s.nodeIdx[i]

	lastG, _ := s.lastBarBefore(P, gi)
	lastI, _ := s.lastBarBefore(C, ii)
	lg, li := s.bnode[lastG], s.bnode[lastI]

	// Step [1]: PathFind(NextBar(g), LastBar(i)).
	if nb := s.nextBarAfter(P, gi+1); nb >= 0 {
		if s.bg.HasPath(s.bnode[nb], li) {
			return chkPath, pairTiming{}, nil
		}
	}

	// Under Naive insertion no timing is tracked: any pair not already
	// ordered by barriers gets one (still via the common-dominator
	// machinery so placement and metrics stay comparable).
	naive := s.opts.Insertion == Naive

	// Step [2]: nearest common dominating barrier.
	cd, err := s.commonDom(lg, li)
	if err != nil {
		return 0, pairTiming{}, err
	}

	// Steps [3]–[4]: propagate timing from the common dominator.
	distMax, err := s.bg.LongestFrom(cd, true)
	if err != nil {
		return 0, pairTiming{}, err
	}
	distMin, err := s.bg.LongestFrom(cd, false)
	if err != nil {
		return 0, pairTiming{}, err
	}
	if distMax[lg] == bdag.Unreachable || distMin[li] == bdag.Unreachable {
		return 0, pairTiming{}, fmt.Errorf("core: common dominator %d does not reach barriers %d/%d", cd, lg, li)
	}
	dMaxG := s.deltaRange(P, gi+1, true) // through g inclusive
	dMinI := s.deltaRange(C, ii, false)  // up to but excluding i
	dMaxI := s.deltaRange(C, ii, true)
	pt := pairTiming{
		cd: cd, lg: lg, li: li,
		tMaxG: distMax[lg] + dMaxG,
		tMinI: distMin[li] + dMinI,
		tMaxI: distMax[li] + dMaxI,
	}

	// Step [5].
	if !naive && pt.tMinI >= pt.tMaxG {
		return chkTiming, pt, nil
	}

	// Section 4.4.2 refinement: walk the k-longest max-time paths cd→lg;
	// for each that is not already below the plain minimum bound, recompute
	// the consumer's minimum path with the overlapping edges forced to
	// their maximum times.
	if s.opts.Insertion == Optimal {
		ok, err := s.optimalCheck(pt, dMaxG, dMinI)
		if err != nil {
			return 0, pairTiming{}, err
		}
		if ok {
			pt.rescued = true
			return chkTiming, pt, nil
		}
	}
	return chkBarrier, pt, nil
}

// optimalCheck implements the path-overlap refinement of section 4.4.2.
// Paths are pulled one at a time from the lazy ψ^j_max ranking: the
// typical pair converges after one or two paths (either the longest path
// already clears the plain minimum bound, or its overlap check fails),
// so the enumeration cost is proportional to paths inspected, not to the
// limit.
func (s *scheduler) optimalCheck(pt pairTiming, dMaxG, dMinI int) (bool, error) {
	limit := s.opts.PathLimit
	if limit <= 0 {
		limit = 64
	}
	plainMin := pt.tMinI // l(ψ_min(u,w)) + δ_min(i⁻)
	for j := 0; j < limit; j++ {
		path, plen, ok := s.bg.NthPath(pt.cd, pt.lg, j)
		if !ok {
			break
		}
		lj := plen + dMaxG
		if lj <= plainMin {
			// All remaining (shorter) paths are satisfied outright.
			return true, nil
		}
		starMin, err := s.bg.LongestMinForcedPath(pt.cd, pt.li, path, &s.sc.psc)
		if err != nil {
			return false, err
		}
		if starMin == bdag.Unreachable || lj > starMin+dMinI {
			return false, nil
		}
	}
	// Every enumerated path passed its overlap-adjusted check.
	return true, nil
}

// commonDom finds the nearest common dominator of two bdag nodes using the
// cached dominator tree.
func (s *scheduler) commonDom(a, b int) (int, error) {
	idom := s.idom
	if idom[a] == -1 || idom[b] == -1 {
		return 0, fmt.Errorf("core: barrier unreachable from initial barrier")
	}
	depth := func(x int) int {
		d := 0
		for x != bdag.Initial {
			x = idom[x]
			d++
		}
		return d
	}
	da, db := depth(a), depth(b)
	for da > db {
		a, da = idom[a], da-1
	}
	for db > da {
		b, db = idom[b], db-1
	}
	for a != b {
		a, b = idom[a], idom[b]
	}
	return a, nil
}

// snapshot captures the mutable schedule state so a tentative mutation
// can be rolled back. It is a reusable arena (scratch.snap): timelines
// and timeline states are deep-copied into retained buffers, while parts
// is copied by header only — participant slices are immutable once set
// (merges replace entries, never edit them), so sharing them with the
// live table is safe.
type snapshot struct {
	procs   [][]Item
	parts   [][]int
	nodeIdx []int
	ps      []procState
	nextBar int
}

// saveSnapshot captures the current state into the arena. Only one
// snapshot is live at a time (mergePass takes one per candidate merge and
// resolves it before the next).
func (s *scheduler) saveSnapshot() {
	if len(s.procs) > 0 {
		s.state(0) // make ps cover every processor before mirroring it
	}
	sn := &s.sc.snap
	for len(sn.procs) < len(s.procs) {
		sn.procs = append(sn.procs, nil)
	}
	for p := range s.procs {
		sn.procs[p] = append(sn.procs[p][:0], s.procs[p]...)
	}
	sn.parts = append(sn.parts[:0], s.parts...)
	sn.nodeIdx = append(sn.nodeIdx[:0], s.nodeIdx...)
	for len(sn.ps) < len(s.ps) {
		sn.ps = append(sn.ps, procState{})
	}
	for p := range s.ps {
		sn.ps[p].copyFrom(&s.ps[p])
	}
	sn.nextBar = s.nextBar
}

// restoreSnapshot rolls the schedule back to the state saveSnapshot
// captured, copying the arena's contents back into the scheduler's own
// buffers. The barrier dag may have been patched since the snapshot, so
// it is marked dirty and rebuilt from the restored timelines on the next
// ensureGraph.
func (s *scheduler) restoreSnapshot() {
	sn := &s.sc.snap
	for p := range s.procs {
		s.procs[p] = append(s.procs[p][:0], sn.procs[p]...)
	}
	s.parts = append(s.parts[:0], sn.parts...)
	s.nodeIdx = append(s.nodeIdx[:0], sn.nodeIdx...)
	for p := range s.ps {
		s.ps[p].copyFrom(&sn.ps[p])
	}
	s.nextBar = sn.nextBar
	s.dirty = true
}

// invertedPair reports whether the schedule structurally forces consumer i
// to complete before producer g starts: i precedes a barrier X on its
// processor, g follows a barrier W on its processor, and X reaches W in the
// barrier dag (X == W counts). Such an inversion makes the data dependence
// (g, i) unsatisfiable by any further barrier, so mutations that would
// create one for a pending timing-resolved pair must be avoided.
func (s *scheduler) invertedPair(g, i int) (bool, error) {
	if err := s.ensureGraph(); err != nil {
		return false, err
	}
	x := s.nextBarAfter(s.assign[i], s.nodeIdx[i]+1)
	if x < 0 {
		return false, nil
	}
	w, _ := s.lastBarBefore(s.assign[g], s.nodeIdx[g])
	return s.bg.HasPath(s.bnode[x], s.bnode[w]), nil
}

// findInvertedPending returns the first pending timing-resolved pair that
// is structurally inverted in the current state, if any.
func (s *scheduler) findInvertedPending() (pairRec, bool, error) {
	for _, pr := range s.timingPairs {
		inv, err := s.invertedPair(pr.g, pr.i)
		if err != nil {
			return pairRec{}, false, err
		}
		if inv {
			return pr, true, nil
		}
	}
	return pairRec{}, false, nil
}

// insertBarrier performs step [6]: a new barrier across Processor(g) and
// Processor(i), placed just before i on the consumer side and after g on
// the producer side — preferably after additional instructions g⁺ whose
// worst-case execution window the consumer would not beat anyway (the
// paper's placement refinement).
//
// Two guards protect global soundness:
//   - the barrier dag must stay acyclic, and
//   - no pending timing-resolved pair may become structurally inverted.
//
// The paper's g⁺ placement is tried first; the fallback placement
// (immediately after g, immediately before i) provably cannot create a
// cycle: the four routes back into the new barrier are excluded by dag
// acyclicity, by the failed PathFind (no NextBar(g)→LastBar(i) path), and
// by the invariant that the pair being protected is itself not inverted.
// If even the fallback would invert some other pending pair, that pair is
// barrier-protected first ("repair first"), which terminates because each
// protection permanently shrinks the pending set.
func (s *scheduler) insertBarrier(g, i int, pt pairTiming) error {
	return s.insertBarrierDepth(g, i, pt, len(s.timingPairs)+4)
}

func (s *scheduler) insertBarrierDepth(g, i int, pt pairTiming, depth int) error {
	if depth < 0 {
		return fmt.Errorf("core: repair-first recursion exceeded bound for pair (%d,%d)", g, i)
	}
	P, C := s.assign[g], s.assign[i]
	if P == C {
		return fmt.Errorf("core: insertBarrier on same processor %d", P)
	}
	gi := s.nodeIdx[g]
	safePos := gi + 1

	// The paper's g⁺ advance: include producer-side instructions that
	// start (in the worst case) before the consumer could reach the
	// barrier anyway, stopping at the next barrier.
	paperPos := safePos
	if pt.tMaxI > pt.tMaxG {
		cum := pt.tMaxG
		for paperPos < len(s.procs[P]) && !s.procs[P][paperPos].IsBarrier {
			start := cum
			cum += s.g.Time[s.procs[P][paperPos].Node].Max
			if start >= pt.tMaxI {
				break
			}
			paperPos++
		}
	}

	try := func(pos int) (bool, error) {
		// Rebuild a graph left dirty by a rollback before registering
		// the new id, or the rebuild would add it as an isolated node.
		if err := s.ensureGraph(); err != nil {
			return false, err
		}
		ci := s.nodeIdx[i]
		id := s.nextBar
		s.nextBar++
		s.parts = append(s.parts, []int{min(P, C), max(P, C)})
		undoID := func() {
			s.parts = s.parts[:id]
			s.nextBar--
		}
		if err := s.applyBarrier(id, P, pos, C, ci); err != nil {
			undoID()
			if errors.Is(err, errWouldCycle) {
				s.record(obsv.KindRollback, int64(id), 0, 0)
				return false, nil
			}
			return false, err
		}
		if _, found, err := s.findInvertedPending(); err != nil {
			return false, err
		} else if found {
			s.unapplyBarrier(P, pos, C, ci)
			undoID()
			s.record(obsv.KindRollback, int64(id), 0, 0)
			return false, nil
		}
		if !s.opts.forceRebuild {
			// A committed insertion patched the barrier dag in place; under
			// forceRebuild the rebuild already emitted its own event.
			s.record(obsv.KindGraphPatch, int64(id), 0, 0)
		}
		s.record(obsv.KindBarrierInsert, int64(id), int64(P), int64(C))
		return true, nil
	}

	for _, pos := range []int{paperPos, safePos} {
		ok, err := try(pos)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		if pos == safePos {
			break
		}
	}

	// Even the safe placement inverts some pending pair: protect that pair
	// with its own barrier first, then retry.
	pr, found, err := s.findInvertedPendingUnder(g, i, safePos)
	if err != nil {
		return err
	}
	if !found {
		// The safe placement failed for a different reason (cycle), which
		// the invariants should rule out: report loudly.
		return fmt.Errorf("core: no sound barrier placement for pair (%d,%d)", g, i)
	}
	if err := s.forceProtect(pr, depth); err != nil {
		return err
	}
	// The protection barrier may itself already order (or re-time) the
	// original pair, and in any case pt is stale: re-run the check before
	// retrying the insertion.
	outcome, pt2, err := s.checkPair(g, i)
	if err != nil {
		return err
	}
	if outcome != chkBarrier {
		return nil
	}
	return s.insertBarrierDepth(g, i, pt2, depth-1)
}

// findInvertedPendingUnder tentatively applies the safe placement for
// (g, i) and returns a pending pair it would invert.
func (s *scheduler) findInvertedPendingUnder(g, i, pos int) (pairRec, bool, error) {
	if err := s.ensureGraph(); err != nil { // as in insertBarrierDepth's try
		return pairRec{}, false, err
	}
	P, C := s.assign[g], s.assign[i]
	ci := s.nodeIdx[i]
	id := s.nextBar
	s.nextBar++
	s.parts = append(s.parts, []int{min(P, C), max(P, C)})
	undoID := func() {
		s.parts = s.parts[:id]
		s.nextBar--
	}
	if err := s.applyBarrier(id, P, pos, C, ci); err != nil {
		undoID()
		if errors.Is(err, errWouldCycle) {
			return pairRec{}, false, nil
		}
		return pairRec{}, false, err
	}
	pr, found, err := s.findInvertedPending()
	s.unapplyBarrier(P, pos, C, ci)
	undoID()
	return pr, found, err
}

// forceProtect removes pr from the pending set and orders it with a
// barrier chain regardless of whether its timing check currently passes,
// because an imminent mutation is about to invalidate it.
func (s *scheduler) forceProtect(pr pairRec, depth int) error {
	for k, q := range s.timingPairs {
		if q == pr {
			s.timingPairs = append(s.timingPairs[:k], s.timingPairs[k+1:]...)
			break
		}
	}
	outcome, pt, err := s.checkPair(pr.g, pr.i)
	if err != nil {
		return err
	}
	if outcome == chkPath {
		return nil // already ordered by barriers
	}
	s.mx.RepairedPairs++
	s.record(obsv.KindRepair, int64(pr.g), int64(pr.i), 0)
	return s.insertBarrierDepth(pr.g, pr.i, pt, depth-1)
}

// insertItemAt inserts it into processor p's timeline at index pos,
// updating the timeline state and the node indices from pos onward. It
// does NOT touch the barrier dag; callers either patch it (applyBarrier)
// or mark it dirty.
func (s *scheduler) insertItemAt(p, pos int, it Item) {
	st := s.state(p)
	tl := s.procs[p]
	tl = append(tl, Item{})
	copy(tl[pos+1:], tl[pos:])
	tl[pos] = it
	s.procs[p] = tl
	st.insertItem(pos, it, s.g.Time)
	s.reindexFrom(p, pos+1)
}

// removeItemAt undoes insertItemAt: the item at index pos leaves the
// timeline and the indices from pos onward are refreshed.
func (s *scheduler) removeItemAt(p, pos int) {
	tl := s.procs[p]
	it := tl[pos]
	copy(tl[pos:], tl[pos+1:])
	s.procs[p] = tl[:len(tl)-1]
	s.state(p).removeItem(pos, it, s.g.Time)
	s.reindexFrom(p, pos)
}

// splitFor describes, for the barrier dag, the effect of inserting a
// barrier at timeline index pos of processor p: the region running from
// the previous barrier to the next one is split, with the prefix-sum
// differences giving the two half-regions' times. Must be called before
// the timeline is mutated, with the barrier dag current.
func (s *scheduler) splitFor(p, pos int) bdag.Split {
	prevID, start := s.lastBarBefore(p, pos)
	st := s.state(p)
	sp := bdag.Split{
		Prev: s.bnode[prevID],
		Next: bdag.NoBarrier,
		ToNew: ir.Timing{
			Min: st.delta(start, pos, false),
			Max: st.delta(start, pos, true),
		},
	}
	if bp := s.nextBarIdx(p, pos); bp >= 0 {
		sp.Next = s.bnode[s.procs[p][bp].Barrier]
		sp.FromNew = ir.Timing{
			Min: st.delta(pos, bp, false),
			Max: st.delta(pos, bp, true),
		}
	}
	return sp
}

// applyBarrier commits barrier id across the producer processor P (at
// timeline index posP) and consumer processor C (at posC), keeping the
// barrier dag in sync. On the default path the dag and its memo are
// patched in place; a placement that would create a cycle is rejected
// with errWouldCycle. Under the forceRebuild test oracle the timelines
// are mutated first and the dag is rebuilt, with a rebuild failure
// reported as errWouldCycle. Either way, when an error is returned the
// timelines are unchanged (barrier-id bookkeeping — parts, nextBar — is
// the caller's to undo).
func (s *scheduler) applyBarrier(id, P, posP, C, posC int) error {
	if s.opts.forceRebuild {
		s.insertItemAt(P, posP, Item{Barrier: id, IsBarrier: true})
		s.insertItemAt(C, posC, Item{Barrier: id, IsBarrier: true})
		s.dirty = true
		if err := s.ensureGraph(); err != nil {
			s.unapplyBarrier(P, posP, C, posC)
			return fmt.Errorf("%w: %v", errWouldCycle, err)
		}
		return nil
	}
	if err := s.ensureGraph(); err != nil {
		return err
	}
	splits := []bdag.Split{s.splitFor(P, posP), s.splitFor(C, posC)}
	if s.bg.WouldCycle(splits) {
		return errWouldCycle
	}
	s.insertItemAt(P, posP, Item{Barrier: id, IsBarrier: true})
	s.insertItemAt(C, posC, Item{Barrier: id, IsBarrier: true})
	// New barrier ids are monotonic and merges always rebuild, so the
	// appended node index equals the index a from-scratch rebuild would
	// assign — bnode stays aligned with buildBarrierGraphDense (auditState
	// checks exactly this). A failed apply can leave a stale tail entry
	// behind (the dag goes dirty and bnode is rebuilt wholesale), hence
	// the overwrite case.
	if id < len(s.bnode) {
		s.bnode[id] = s.bg.InsertBarrier(s.parts[id], splits)
	} else {
		s.bnode = append(s.bnode, s.bg.InsertBarrier(s.parts[id], splits))
	}
	idom, err := s.bg.Dominators()
	if err != nil {
		s.unapplyBarrier(P, posP, C, posC)
		return fmt.Errorf("core: barrier dag cyclic after patch: %w", err)
	}
	s.idom = idom
	if s.opts.selfCheck {
		return s.auditState()
	}
	return nil
}

// unapplyBarrier removes the two timeline items applyBarrier inserted and
// marks the barrier dag for rebuild (the patch, if any, is abandoned).
func (s *scheduler) unapplyBarrier(P, posP, C, posC int) {
	s.removeItemAt(P, posP)
	s.removeItemAt(C, posC)
	s.dirty = true
}

// mergePass implements section 4.4.3 for SBM schedules: while any two
// barriers are unordered in the dag and have overlapping fire windows,
// merge them into one barrier spanning the union of their processors.
//
// A merge that would structurally invert a pending timing-resolved
// producer/consumer pair is rejected (the paper does not consider this
// interaction; an inverted pair could never be repaired). Rejected pairs
// are skipped for the remainder of the pass.
func (s *scheduler) mergePass() error {
	start := time.Now()
	defer func() { s.clock.Observe("merge", time.Since(start)) }()
	if s.sc.rejected == nil {
		s.sc.rejected = make(map[[2]int]bool)
	} else {
		clear(s.sc.rejected)
	}
	rejected := s.sc.rejected
	for {
		if err := s.ensureGraph(); err != nil {
			return err
		}
		fmin0, fmax0, err := s.bg.FireWindows()
		if err != nil {
			return err
		}
		// Copy the windows out of the memo: a rejected merge mid-scan
		// rebuilds into the spare buffer, which may be the very graph
		// these slices belong to.
		fmin := append(s.sc.fmin[:0], fmin0...)
		fmax := append(s.sc.fmax[:0], fmax0...)
		s.sc.fmin, s.sc.fmax = fmin, fmax
		// Live ids in ascending order, straight off the dense table.
		ids := s.sc.ids[:0]
		for id, ps := range s.parts {
			if id != InitialBarrier && ps != nil {
				ids = append(ids, id)
			}
		}
		s.sc.ids = ids
		merged := false
		for x := 0; x < len(ids) && !merged; x++ {
			for y := x + 1; y < len(ids) && !merged; y++ {
				a, b := ids[x], ids[y]
				if rejected[[2]int{a, b}] {
					continue
				}
				na, nb := s.bnodeAt(a), s.bnodeAt(b)
				if fmin[na] > fmax[nb] || fmin[nb] > fmax[na] {
					continue // windows disjoint
				}
				if s.bg.Ordered(na, nb) {
					continue
				}
				s.saveSnapshot()
				s.merge(a, b)
				if err := s.ensureGraph(); err != nil {
					s.restoreSnapshot()
					s.mx.MergedBarriers--
					rejected[[2]int{a, b}] = true
					s.record(obsv.KindMergeReject, int64(a), int64(b), 0)
					continue
				}
				if _, found, err := s.findInvertedPending(); err != nil {
					return err
				} else if found {
					s.restoreSnapshot()
					s.mx.MergedBarriers--
					rejected[[2]int{a, b}] = true
					s.record(obsv.KindMergeReject, int64(a), int64(b), 0)
					continue
				}
				merged = true
				s.record(obsv.KindBarrierMerge, int64(a), int64(b), int64(len(s.parts[a])))
			}
		}
		if !merged {
			return nil
		}
	}
}

// bnodeAt reads the barrier-id → dag-node table, treating missing and
// dead entries as the initial barrier. After a rejected merge the table
// still describes the rolled-back rebuild (restoreSnapshot only marks the
// graph dirty, exactly as the map-based scheduler did), so the scan can
// ask about an id the stale table no longer carries; the old map returned
// its zero value for those reads and the pass's candidate order is
// calibrated against that.
func (s *scheduler) bnodeAt(id int) int {
	if id < len(s.bnode) && s.bnode[id] >= 0 {
		return s.bnode[id]
	}
	return bdag.Initial
}

// merge folds barrier b into barrier a: participants are unioned and every
// wait on b becomes a wait on a. Unordered barriers never share a
// processor (a shared processor's timeline would order them), so no
// timeline can end up waiting twice. The union is a fresh slice — the
// snapshot arena's header-copied parts table depends on participant
// slices never being edited in place.
func (s *scheduler) merge(a, b int) {
	pa, pb := s.parts[a], s.parts[b]
	union := make([]int, 0, len(pa)+len(pb))
	i, j := 0, 0
	for i < len(pa) && j < len(pb) {
		switch {
		case pa[i] < pb[j]:
			union = append(union, pa[i])
			i++
		case pa[i] > pb[j]:
			union = append(union, pb[j])
			j++
		default:
			union = append(union, pa[i])
			i++
			j++
		}
	}
	union = append(union, pa[i:]...)
	union = append(union, pb[j:]...)
	s.parts[a] = union
	s.parts[b] = nil
	for p := range s.procs {
		for k := range s.procs[p] {
			if s.procs[p][k].IsBarrier && s.procs[p][k].Barrier == b {
				s.procs[p][k].Barrier = a
			}
		}
	}
	s.mx.MergedBarriers++
	s.dirty = true
}

// verifyRepair re-checks every pair previously resolved by the timing
// check; any pair invalidated by subsequent barrier insertions or merges
// gets a repair barrier. Runs to fixpoint (repairs convert timing-resolved
// pairs to barrier-ordered pairs, which stay satisfied forever, so the
// loop terminates).
func (s *scheduler) verifyRepair() error {
	start := time.Now()
	defer func() { s.clock.Observe("verify", time.Since(start)) }()
	for {
		repaired := false
		// Iterate over a private copy: insertBarrier below may recursively
		// force-protect (and remove) other pending pairs, mutating
		// s.timingPairs in place — an aliased view would be corrupted by
		// that left-shift. The copy lives in a reused scratch buffer;
		// remaining rewrites s.timingPairs' own backing in place, which is
		// safe because nothing reads s.timingPairs until it is reassigned
		// below (checkPair never touches the pending list).
		pending := append(s.sc.pending[:0], s.timingPairs...)
		s.sc.pending = pending
		remaining := s.timingPairs[:0]
		for k, pr := range pending {
			outcome, pt, err := s.checkPair(pr.g, pr.i)
			if err != nil {
				return err
			}
			switch outcome {
			case chkPath:
				// Now ordered by barriers; drop from the watch list.
			case chkTiming:
				remaining = append(remaining, pr)
			case chkBarrier:
				s.mx.RepairedPairs++
				s.record(obsv.KindRepair, int64(pr.g), int64(pr.i), 0)
				// Commit the watch list (without pr) before mutating the
				// schedule, so recursive protection sees a consistent,
				// non-aliased list; then restart from fresh state.
				s.timingPairs = append(remaining, pending[k+1:]...)
				if err := s.insertBarrier(pr.g, pr.i, pt); err != nil {
					return err
				}
				if s.opts.Machine == SBM {
					if err := s.mergePass(); err != nil {
						return err
					}
				}
				repaired = true
			}
			if repaired {
				break
			}
		}
		if !repaired {
			s.timingPairs = remaining
			return nil
		}
	}
}
