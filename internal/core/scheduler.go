package core

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"barriermimd/internal/bdag"
	"barriermimd/internal/dag"
	"barriermimd/internal/ir"
	"barriermimd/internal/metrics"
	"barriermimd/internal/obsv"
)

// ScheduleDAG schedules the instruction DAG g onto a barrier MIMD
// according to opts, returning the complete schedule with its barrier dag
// and metrics.
func ScheduleDAG(g *dag.Graph, opts Options) (*Schedule, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Cache != nil {
		// Delegate to the memoization layer; it calls back into
		// ScheduleDAG with Cache cleared on a miss, so the pipeline below
		// is the compute path either way.
		c := opts.Cache
		opts.Cache = nil
		return c.Schedule(g, opts)
	}
	s := newScheduler(g, opts)
	defer s.release()

	start := time.Now()
	order, err := s.listOrder()
	s.clock.Observe("order", time.Since(start))
	if err != nil {
		return nil, err
	}
	start = time.Now()
	for k, n := range order {
		if err := s.place(k, n, order); err != nil {
			return nil, err
		}
	}
	s.clock.Observe("place", time.Since(start))
	return s.finish()
}

func allProcs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// pairRec is a producer/consumer DAG edge whose synchronization was
// resolved by the static timing check and must be re-verified whenever
// later barrier insertions or merges change the timing picture.
type pairRec struct{ g, i int }

type scheduler struct {
	g    *dag.Graph
	opts Options
	rng  *rand.Rand

	procs   [][]Item
	assign  []int   // node -> processor (-1 = unplaced)
	nodeIdx []int   // node -> index in its processor timeline
	parts   [][]int // barrier id -> participants (nil = merged away)
	nextBar int

	// partsInit backs parts[InitialBarrier] (the all-processors list);
	// participant lists are immutable once set, so the pooled buffer is
	// safe to share across runs — finish copies it into the Schedule.
	partsInit []int

	// sc is the reusable working-buffer arena; see scratch.go. parts
	// values are immutable once set (merges replace, never edit), which
	// is what lets the snapshot arena copy parts by header.
	sc scratch

	// ps mirrors procs with per-processor prefix sums and barrier
	// positions (see timeline.go), maintained in lockstep so timeline
	// queries are O(1)/O(log). Initialized lazily by state().
	ps []procState

	// Derived barrier-dag state. Barrier insertions patch it in place
	// (insert.go applyBarrier); merges and rollbacks set dirty and the
	// next ensureGraph rebuilds from the timelines. Rebuilds
	// double-buffer: the outgoing graph becomes the spare, and the next
	// rebuild resets and reuses the spare's storage instead of
	// allocating a fresh graph (see ensureGraph). The spare is one
	// generation stale and never queried.
	dirty      bool
	bg         *bdag.Graph
	bnode      []int // schedule barrier id -> bdag node index (-1 = dead)
	idom       []int
	bgSpare    *bdag.Graph
	bnodeSpare []int

	timingPairs []pairRec
	mx          Metrics
	clock       metrics.StageClock

	// rec mirrors opts.Recorder (nil = tracing disabled); placed counts
	// scheduled list entries and is the logical clock scheduler trace
	// events carry as their Tick.
	rec    obsv.Recorder
	placed int
}

// record emits one scheduler trace event. With tracing disabled this is
// a single nil check; events carry the placement progress as their
// logical time and never wall-clock time, keeping streams deterministic.
func (s *scheduler) record(k obsv.Kind, a0, a1, a2 int64) {
	if s.rec == nil {
		return
	}
	s.rec.Record(obsv.Event{Kind: k, Tick: int64(s.placed), Arg0: a0, Arg1: a1, Arg2: a2})
}

// liveBarriers counts barriers not merged away (including the initial
// barrier); used only when emitting rebuild trace events.
func (s *scheduler) liveBarriers() int64 {
	var n int64
	for _, ps := range s.parts {
		if ps != nil {
			n++
		}
	}
	return n
}

// listOrder computes the scheduling list of section 4.2: real nodes sorted
// by descending h_max, ties by descending h_min (or swapped under the
// MinHeightFirst ablation), full ties broken randomly.
func (s *scheduler) listOrder() ([]int, error) {
	h, err := s.g.Heights()
	if err != nil {
		return nil, err
	}
	key1, key2 := h.Max, h.Min
	if s.opts.Ordering == MinHeightFirst {
		key1, key2 = h.Min, h.Max
	}
	nodes := make([]int, s.g.N)
	for i := range nodes {
		nodes[i] = i
	}
	sort.Stable(byHeight{nodes, key1, key2})
	// Shuffle runs of full ties with the seeded RNG ("choose one at
	// random" — section 4.3); the result stays a valid priority order.
	for lo := 0; lo < len(nodes); {
		hi := lo + 1
		for hi < len(nodes) &&
			key1[nodes[hi]] == key1[nodes[lo]] &&
			key2[nodes[hi]] == key2[nodes[lo]] {
			hi++
		}
		s.rng.Shuffle(hi-lo, func(a, b int) {
			nodes[lo+a], nodes[lo+b] = nodes[lo+b], nodes[lo+a]
		})
		lo = hi
	}
	return nodes, nil
}

// byHeight sorts the scheduling list by descending primary then secondary
// height. A concrete sort.Interface (instead of sort.SliceStable's
// closure) keeps listOrder off the allocator; stable sorting makes the
// result unique, so the two are interchangeable output-wise.
type byHeight struct {
	nodes      []int
	key1, key2 []int
}

func (o byHeight) Len() int      { return len(o.nodes) }
func (o byHeight) Swap(a, b int) { o.nodes[a], o.nodes[b] = o.nodes[b], o.nodes[a] }
func (o byHeight) Less(a, b int) bool {
	na, nb := o.nodes[a], o.nodes[b]
	if o.key1[na] != o.key1[nb] {
		return o.key1[na] > o.key1[nb]
	}
	return o.key2[na] > o.key2[nb]
}

// realPreds returns i's non-dummy DAG predecessors (precomputed at DAG
// build time; shared, read-only).
func (s *scheduler) realPreds(i int) []int {
	return s.g.RealPreds(i)
}

// state returns processor p's timeline state, growing the table lazily so
// hand-constructed schedulers (tests) work without extra setup. Entries
// parked beyond len by a pooled scheduler are rebuilt in place, reusing
// their prefix-sum buffers.
func (s *scheduler) state(p int) *procState {
	for len(s.ps) < len(s.procs) {
		q := len(s.ps)
		if q < cap(s.ps) {
			s.ps = s.ps[:q+1]
			s.ps[q].rebuildFrom(s.procs[q], s.g.Time)
		} else {
			s.ps = append(s.ps, buildProcState(s.procs[q], s.g.Time))
		}
	}
	return &s.ps[p]
}

// lastInstr returns the last instruction node on processor p, or -1.
// Barriers are only ever inserted between existing instructions, so the
// cached last appended node stays correct across insertions.
func (s *scheduler) lastInstr(p int) int {
	return s.state(p).lastNode
}

// place assigns node n (the k-th list entry) to a processor and inserts
// any barriers its cross-processor producers require.
func (s *scheduler) place(k, n int, order []int) error {
	var p int
	var err error
	switch s.opts.Assignment {
	case RoundRobin:
		p = k % s.opts.Processors
	default:
		p, err = s.chooseProcessor(k, n, order)
		if err != nil {
			return err
		}
	}
	s.appendNode(p, n)
	s.placed++

	// Check every cross-processor producer, in ascending node order for
	// determinism. Earlier insertions sharpen the timing of later checks
	// (the Figure 7/8 secondary effect).
	for _, g := range s.realPreds(n) {
		if s.assign[g] == p {
			continue // serialized
		}
		if err := s.resolvePair(g, n); err != nil {
			return err
		}
	}
	return nil
}

// chooseProcessor implements section 4.3 node assignment.
func (s *scheduler) chooseProcessor(k, n int, order []int) (int, error) {
	// Step [1]: serialization onto a producer processor whose last
	// instruction is a predecessor of n.
	eligible := s.sc.eligible[:0]
	seen := s.sc.seenProc
	for _, g := range s.realPreds(n) {
		p := s.assign[g]
		if p < 0 || seen[p] {
			continue
		}
		seen[p] = true
		if li := s.lastInstr(p); li >= 0 && s.isPred(li, n) {
			eligible = append(eligible, p)
		}
	}
	s.sc.eligible = eligible
	for i := range seen {
		seen[i] = false
	}
	if len(eligible) == 1 {
		return eligible[0], nil
	}
	if len(eligible) > 1 {
		// Largest current maximum time (to possibly avoid a barrier);
		// full ties broken at random.
		return s.pickByEndTime(eligible, pickLatest)
	}

	// Step [2]: earliest possible start; ties at random. Under the
	// lookahead ablation, avoid processors whose last instruction feeds a
	// node inside the lookahead window (it may want to serialize there).
	candidates := s.sc.allProcs
	if s.opts.Lookahead > 0 {
		if filtered := s.lookaheadFilter(k, n, order, candidates); len(filtered) > 0 {
			candidates = filtered
		}
	}
	return s.pickByEndTime(candidates, pickEarliest)
}

// isPred reports whether g is a direct DAG predecessor of n.
func (s *scheduler) isPred(g, n int) bool {
	if _, ok := s.g.EdgeKind(g, n); ok {
		return true
	}
	return false
}

// lookaheadFilter drops candidate processors whose last instruction is a
// producer of some node within the next Lookahead list entries (section
// 5.4 lookahead experiment).
func (s *scheduler) lookaheadFilter(k, n int, order, candidates []int) []int {
	windowEnd := k + 1 + s.opts.Lookahead
	if windowEnd > len(order) {
		windowEnd = len(order)
	}
	out := s.sc.filtered[:0]
	for _, p := range candidates {
		li := s.lastInstr(p)
		blocked := false
		if li >= 0 {
			for _, w := range order[k+1 : windowEnd] {
				if s.isPred(li, w) {
					blocked = true
					break
				}
			}
		}
		if !blocked {
			out = append(out, p)
		}
	}
	s.sc.filtered = out
	return out
}

// endTimeRule selects the comparison direction of pickByEndTime: latest
// end first for serialization candidates, earliest start first for free
// assignment. A flag instead of a closure keeps the hot loop off the
// allocator.
type endTimeRule bool

const (
	pickLatest   endTimeRule = true
	pickEarliest endTimeRule = false
)

func (r endTimeRule) better(a, b int) bool {
	if r == pickLatest {
		return a > b
	}
	return a < b
}

// pickByEndTime selects among candidate processors by their current
// maximum end time (then minimum end time), compared per rule; full ties
// are broken with the seeded RNG.
func (s *scheduler) pickByEndTime(candidates []int, rule endTimeRule) (int, error) {
	if err := s.ensureGraph(); err != nil {
		return 0, err
	}
	fmin, fmax, err := s.bg.FireWindows()
	if err != nil {
		return 0, err
	}
	ties := s.sc.ties[:0]
	bestMax, bestMin := 0, 0
	for _, p := range candidates {
		lb, _ := s.lastBarBefore(p, len(s.procs[p]))
		em := fmax[s.bnode[lb]] + s.deltaRange(p, len(s.procs[p]), true)
		en := fmin[s.bnode[lb]] + s.deltaRange(p, len(s.procs[p]), false)
		switch {
		case len(ties) == 0 ||
			rule.better(em, bestMax) ||
			(em == bestMax && rule.better(en, bestMin)):
			ties = append(ties[:0], p)
			bestMax, bestMin = em, en
		case em == bestMax && en == bestMin:
			ties = append(ties, p)
		}
	}
	s.sc.ties = ties
	return ties[s.rng.Intn(len(ties))], nil
}

// appendNode places node n at the end of processor p's timeline. The
// barrier dag is NOT marked dirty: buildBarrierGraphDense only materializes
// regions that end at a barrier, so an instruction appended after the
// last barrier of a timeline is invisible to the dag (timing of trailing
// regions is always read from the timeline via deltaRange). Keeping the
// dag clean here is what lets the memoized path queries survive across
// node placements instead of going cold on every one.
func (s *scheduler) appendNode(p, n int) {
	st := s.state(p)
	it := Item{Node: n}
	s.procs[p] = append(s.procs[p], it)
	st.appendItem(it, s.g.Time)
	s.assign[n] = p
	s.nodeIdx[n] = len(s.procs[p]) - 1
}

// buildBarrierGraphDense derives the barrier dag from per-processor
// timelines and the dense barrier participant table (nil entries are
// merged-away barriers): one node per live barrier, and one region edge
// per consecutive barrier pair on a processor, with the Figure 13
// aggregation rule applied by bdag.AddRegion. Nodes are assigned in
// ascending barrier-id order — the same order the sorted-map builder
// always used, so patched graphs and rebuilds stay aligned. Both the
// scheduler and the independent Schedule.VerifyStatic auditor build
// their dag this way, so they can never disagree about structure.
func buildBarrierGraphDense(procs [][]Item, parts [][]int, times []ir.Timing) (*bdag.Graph, []int, error) {
	return rebuildBarrierGraphDense(nil, nil, procs, parts, times)
}

// rebuildBarrierGraphDense is buildBarrierGraphDense with arena reuse:
// a non-nil arena graph is Reset and rebuilt in place (the caller must
// have harvested its counters and hold no views into it), and bbuf backs
// the returned id table.
func rebuildBarrierGraphDense(arena *bdag.Graph, bbuf []int, procs [][]Item, parts [][]int, times []ir.Timing) (*bdag.Graph, []int, error) {
	bg := arena
	if bg != nil {
		bg.Reset(parts[InitialBarrier])
	} else {
		bg = bdag.New(parts[InitialBarrier])
	}
	bnode := bbuf[:0]
	for range parts {
		bnode = append(bnode, -1)
	}
	bnode[InitialBarrier] = bdag.Initial
	for id := InitialBarrier + 1; id < len(parts); id++ {
		if parts[id] != nil {
			bnode[id] = bg.AddBarrier(parts[id])
		}
	}
	for p := range procs {
		prev := bdag.Initial
		acc := ir.Timing{}
		for _, it := range procs[p] {
			if !it.IsBarrier {
				t := times[it.Node]
				acc.Min += t.Min
				acc.Max += t.Max
				continue
			}
			if it.Barrier >= len(bnode) || bnode[it.Barrier] < 0 {
				return nil, nil, fmt.Errorf("core: timeline references dead barrier %d", it.Barrier)
			}
			bn := bnode[it.Barrier]
			bg.AddRegion(prev, bn, acc)
			prev, acc = bn, ir.Timing{}
		}
	}
	return bg, bnode, nil
}

// ensureGraph rebuilds the derived barrier dag from the timelines if a
// non-patchable mutation (merge, rollback) occurred since the last build.
// Barrier insertions patch the existing graph in place instead (see
// applyBarrier in insert.go), so on the hot path this is a no-op.
func (s *scheduler) ensureGraph() error {
	if !s.dirty {
		return nil
	}
	s.mx.Maint.Rebuilds++
	if s.bgSpare != nil {
		// The spare's generation dies with the Reset inside the rebuild;
		// its counters would be lost with it. (Reset zeroes them, so a
		// failed rebuild cannot double-count on the next attempt.)
		s.mx.PathCache.Add(s.bgSpare.CacheStats())
		s.mx.Maint.Add(s.bgSpare.MaintStats())
	}
	bg, bnode, err := rebuildBarrierGraphDense(s.bgSpare, s.bnodeSpare[:0], s.procs, s.parts, s.g.Time)
	if err != nil {
		return err
	}
	idom, err := bg.Dominators()
	if err != nil {
		// s.bg stays the pre-rebuild graph, exactly as when rebuilds
		// allocated fresh: the failed generation lives only in the
		// spare, which the next attempt resets again.
		return fmt.Errorf("core: barrier dag is cyclic: %w", err)
	}
	s.bgSpare, s.bnodeSpare = s.bg, s.bnode
	s.bg, s.bnode, s.idom = bg, bnode, idom
	s.dirty = false
	if s.rec != nil {
		s.record(obsv.KindGraphRebuild, s.liveBarriers(), 0, 0)
		s.record(obsv.KindCacheStats, int64(s.mx.PathCache.Hits), int64(s.mx.PathCache.Misses), 0)
	}
	return nil
}

// lastBarBefore returns the last barrier id before timeline index idx on
// processor p (InitialBarrier if none) and the index just after it, in
// O(log barriers) via the timeline state's barrier-position list.
func (s *scheduler) lastBarBefore(p, idx int) (bar, regionStart int) {
	st := s.state(p)
	if k := st.lastBarAt(idx); k >= 0 {
		bp := st.barPos[k]
		return s.procs[p][bp].Barrier, bp + 1
	}
	return InitialBarrier, 0
}

// nextBarIdx returns the timeline index of the first barrier at or after
// index idx on processor p, or -1.
func (s *scheduler) nextBarIdx(p, idx int) int {
	return s.state(p).nextBarAt(idx)
}

// nextBarAfter returns the first barrier id at or after timeline index idx
// on processor p, or -1.
func (s *scheduler) nextBarAfter(p, idx int) int {
	if bp := s.nextBarIdx(p, idx); bp >= 0 {
		return s.procs[p][bp].Barrier
	}
	return -1
}

// deltaRange sums instruction times on processor p in the region from the
// last barrier before idx up to (excluding) idx, under min or max times —
// a prefix-sum difference, O(log barriers) for the region start lookup.
func (s *scheduler) deltaRange(p, idx int, useMax bool) int {
	_, start := s.lastBarBefore(p, idx)
	return s.state(p).delta(start, idx, useMax)
}

// reindexFrom refreshes nodeIdx for processor p for timeline entries at or
// after index from. Entries before an insertion point keep their index, so
// callers pass the insertion point instead of rescanning the timeline.
func (s *scheduler) reindexFrom(p, from int) {
	tl := s.procs[p]
	for k := from; k < len(tl); k++ {
		if !tl[k].IsBarrier {
			s.nodeIdx[tl[k].Node] = k
		}
	}
}

// finish freezes the scheduler state into a Schedule and computes metrics.
func (s *scheduler) finish() (*Schedule, error) {
	start := time.Now()
	if err := s.ensureGraph(); err != nil {
		return nil, err
	}
	// Final-generation cache counters plus everything accumulated across
	// rebuilds. The spare buffer still holds the second-to-last
	// generation's counters (they are only harvested when a rebuild
	// reuses the buffer). They are taken before freezeBarriers, whose own
	// queries are not part of scheduling.
	s.mx.PathCache.Add(s.bg.CacheStats())
	s.mx.Maint.Add(s.bg.MaintStats())
	if s.bgSpare != nil {
		s.mx.PathCache.Add(s.bgSpare.CacheStats())
		s.mx.Maint.Add(s.bgSpare.MaintStats())
	}
	s.mx.TotalImpliedSyncs = s.g.TotalImpliedSynchronizations()
	s.mx.SerializedSyncs = 0
	for _, e := range s.g.RealEdges() {
		if s.assign[e.From] == s.assign[e.To] {
			s.mx.SerializedSyncs++
		}
	}
	view, err := s.freezeBarriers()
	if err != nil {
		return nil, err
	}
	// Participant lists are copied: parts[InitialBarrier] is the pooled
	// partsInit buffer.
	parts := make([][]int, len(s.parts))
	s.mx.Barriers = -1
	for id, ps := range s.parts {
		if ps != nil {
			parts[id] = append([]int(nil), ps...)
			s.mx.Barriers++
		}
	}
	sched := &Schedule{
		Graph:        s.g,
		Opts:         s.opts,
		Procs:        s.procs,
		AssignTo:     s.assign,
		Participants: parts,
		Barriers:     view,
		Metrics:      s.mx,
	}
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	if s.rec != nil {
		s.record(obsv.KindCacheStats, int64(s.mx.PathCache.Hits), int64(s.mx.PathCache.Misses), 0)
		s.record(obsv.KindSchedDone, int64(s.mx.Barriers), int64(s.mx.MergedBarriers), int64(s.mx.RepairedPairs))
	}
	// The Schedule gets a copied clock header: it shares this run's
	// accumulated stage map, but release detaches the scheduler from that
	// backing, so a pooled reuse can never mutate it. The copy happens
	// after the final Observe so "finalize" is already in the shared map.
	s.clock.Observe("finalize", time.Since(start))
	mergeStageStats(&s.clock)
	ck := s.clock
	sched.Metrics.Stages = &ck
	return sched, nil
}
