package core

import (
	"sync"

	"barriermimd/internal/bdag"
	"barriermimd/internal/dag"
	"barriermimd/internal/metrics"
)

// schedulerPool recycles scheduler arenas across ScheduleDAG calls. A
// schedule run grows a sizable working set — both barrier graphs with
// their memo freelists, per-processor prefix sums, the merge snapshot
// arena, and the scratch buffers — none of which escapes into the
// returned Schedule. Pooling hands that warm storage to the next run, so
// steady-state scheduling only allocates the state the Schedule actually
// keeps (timelines, the assignment table, the copied barrier tables).
var schedulerPool sync.Pool

// newScheduler returns a scheduler ready to run g under opts, reusing a
// pooled arena when one is available. State that escapes into the
// Schedule (procs, assign) is always freshly allocated; everything else
// is resized in place. The RNG is reseeded, so runs are byte-identical
// to a cold scheduler's.
func newScheduler(g *dag.Graph, opts Options) *scheduler {
	s, _ := schedulerPool.Get().(*scheduler)
	if s == nil {
		s = &scheduler{}
	}
	p := opts.Processors
	s.g = g
	s.opts = opts
	if s.rng == nil {
		s.rng = opts.newRNG()
	} else {
		s.rng.Seed(opts.Seed)
	}
	s.procs = make([][]Item, p)
	s.assign = make([]int, g.N)
	for i := range s.assign {
		s.assign[i] = -1
	}
	s.nodeIdx = resizeInts(s.nodeIdx, g.N)
	for i := range s.nodeIdx {
		s.nodeIdx[i] = -1
	}
	s.partsInit = fillProcs(s.partsInit, p)
	s.parts = append(s.parts[:0], s.partsInit)
	s.nextBar = 1
	s.dirty = true
	s.ps = s.ps[:0]
	s.timingPairs = s.timingPairs[:0]
	s.sc.allProcs = fillProcs(s.sc.allProcs, p)
	s.sc.seenProc = resizeBools(s.sc.seenProc, p)
	clear(s.sc.seenProc)
	s.rec = opts.Recorder
	s.placed = 0
	return s
}

// release parks the scheduler's reusable arenas back on the pool. The
// references that escaped into the returned Schedule — the timelines,
// the assignment table, and the stage clock's backing (finish hands out
// a copied header) — are detached first so the next run cannot touch
// them. Both graphs are Reset here rather than lazily: that harvests
// their memo rows into the freelists and zeroes their counters, so the
// next run's first rebuild starts warm and does not double-count a dead
// generation's statistics.
func (s *scheduler) release() {
	for _, bg := range [2]*bdag.Graph{s.bg, s.bgSpare} {
		if bg != nil {
			bg.Reset(nil)
		}
	}
	s.g = nil
	s.procs = nil
	s.assign = nil
	s.idom = nil
	s.mx = Metrics{}
	s.clock = metrics.StageClock{}
	s.rec = nil
	s.opts = Options{}
	schedulerPool.Put(s)
}

// resizeInts returns a length-n []int reusing b's storage when it fits
// (contents undefined).
func resizeInts(b []int, n int) []int {
	if cap(b) < n {
		return make([]int, n)
	}
	return b[:n]
}

// resizeBools is resizeInts for []bool.
func resizeBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	return b[:n]
}

// fillProcs returns the identity processor list [0, n), reusing b's
// storage when it fits.
func fillProcs(b []int, n int) []int {
	b = resizeInts(b, n)
	for i := range b {
		b[i] = i
	}
	return b
}
