package core

import "barriermimd/internal/bdag"

// scratch holds the scheduler's reusable working buffers. Every slice is
// reset with s[:0] (or cleared) at the start of the operation that uses
// it, so the placement and insertion loops allocate only while a buffer
// is still growing toward its high-water mark — after warm-up the hot
// loop runs allocation-free. The buffers are private to one scheduler
// (one goroutine); none of them may be held across a call that reuses
// the same buffer.
type scratch struct {
	// chooseProcessor / pickByEndTime.
	allProcs []int  // the fixed candidate list 0..P-1, built once
	seenProc []bool // per-processor dedup marks, cleared per use
	eligible []int  // serialization candidates (step [1])
	filtered []int  // lookahead-filtered candidates (step [2])
	ties     []int  // end-time ties awaiting the RNG break

	// verifyRepair working copy of the pending timing-pair list.
	pending []pairRec

	// mergePass candidate bookkeeping. fmin/fmax hold a copy of the
	// scan's fire windows: the memo slices they come from belong to a
	// graph generation that a rejected merge's rebuild may recycle
	// mid-scan (see ensureGraph's double buffering).
	ids      []int           // live barrier ids, ascending; freezeBarriers' node → id table
	rejected map[[2]int]bool // rejected merge pairs, cleared per pass
	fmin     []int
	fmax     []int

	// psc backs the ψ*_min recomputation of optimalCheck
	// (bdag.LongestMinForcedPath): distance vector plus forced-successor
	// marks, reused across every path of every pair.
	psc bdag.Scratch

	// snap is the mergePass rollback arena; see saveSnapshot.
	snap snapshot
}
