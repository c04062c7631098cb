package machine

import (
	"fmt"
	"sort"
	"sync"

	"barriermimd/internal/core"
	"barriermimd/internal/ir"
)

// Plan is a schedule lowered into flat arrays for repeated simulation:
// per-processor instruction streams, CSR barrier-participation and
// barrier-dag adjacency lists, a dense barrier-id remapping (so per-run
// firing times live in a slice instead of a map), and — for the SBM — the
// precomputed compile-time firing queue. A Plan is immutable after Compile
// and safe to share across goroutines; all mutable per-run state lives in
// scratch recycled through the plan's sync.Pools.
//
// The invariant that makes the split sound: everything in the Plan depends
// only on (schedule, machine kind), never on the timing policy, seed, or
// barrier cost, which are per-run Config inputs. Plan.Run and Plan.RunMany
// share one simulator kernel (batch.go); the tests pin it byte-identical
// to a reference per-run simulator for every machine × policy × seed
// combination.
type Plan struct {
	sched *core.Schedule
	kind  core.MachineKind

	nprocs int
	nnodes int

	// items concatenates every processor's timeline: values >= 0 are DAG
	// node indices, values < 0 encode a wait on dense barrier -v-1.
	// procStart[p]..procStart[p+1] delimits processor p's stream.
	items     []int32
	procStart []int32

	// barIDs maps dense barrier indices to schedule-level ids in ascending
	// id order; dense 0 is always core.InitialBarrier.
	barIDs []int

	// partStart/parts is the CSR participant list per dense barrier.
	partStart []int32
	parts     []int32

	// succStart/succs and predStart/preds are the barrier dag in dense
	// index space. Compile uses the successor lists to derive the SBM
	// queue; the predecessor lists drive deadlock diagnostics.
	succStart, succs []int32
	predStart, preds []int32

	// queue is the SBM compile-time firing order as dense indices
	// (excluding the initial barrier); nil for DBM plans.
	queue []int32

	// minDur/spanDur give each node's minimum duration and inclusive range
	// width (Max-Min+1), pre-split for the per-run duration draw; vary
	// lists the nodes whose span exceeds one, in ascending order.
	minDur, spanDur []int32
	vary            []int32

	batchPool sync.Pool // *batchScratch (Run and RunMany results)
	chunkPool sync.Pool // *chunkScratch (kernel worker state)
}

// Compile lowers a schedule into an immutable simulation plan for the given
// machine kind. The schedule is validated once here, not per run.
func Compile(s *core.Schedule, kind core.MachineKind) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{
		sched:  s,
		kind:   kind,
		nprocs: len(s.Procs),
		nnodes: s.Graph.N,
	}

	// Dense barrier remapping, ascending by schedule-level id. denseOf is
	// indexed by id; merged-away ids keep 0 but no wait or edge names them.
	p.barIDs = s.BarrierIDs()
	nb := len(p.barIDs)
	denseOf := make([]int32, len(s.Participants))
	for d, id := range p.barIDs {
		denseOf[id] = int32(d)
	}

	// Flat instruction streams.
	total := 0
	for _, tl := range s.Procs {
		total += len(tl)
	}
	p.items = make([]int32, 0, total)
	p.procStart = make([]int32, p.nprocs+1)
	for pr, tl := range s.Procs {
		p.procStart[pr] = int32(len(p.items))
		for _, it := range tl {
			if it.IsBarrier {
				p.items = append(p.items, -denseOf[it.Barrier]-1)
			} else {
				p.items = append(p.items, int32(it.Node))
			}
		}
	}
	p.procStart[p.nprocs] = int32(len(p.items))

	// CSR participants per dense barrier.
	p.partStart = make([]int32, nb+1)
	np := 0
	for _, parts := range s.Participants {
		np += len(parts)
	}
	p.parts = make([]int32, 0, np)
	for d, id := range p.barIDs {
		p.partStart[d] = int32(len(p.parts))
		for _, pr := range s.Participants[id] {
			p.parts = append(p.parts, int32(pr))
		}
	}
	p.partStart[nb] = int32(len(p.parts))

	// Barrier dag in dense space.
	outDeg := make([]int32, nb)
	inDeg := make([]int32, nb)
	edges := s.Barriers.Edges()
	for _, e := range edges {
		outDeg[denseOf[e.From]]++
		inDeg[denseOf[e.To]]++
	}
	p.succStart = make([]int32, nb+1)
	p.predStart = make([]int32, nb+1)
	for d := 0; d < nb; d++ {
		p.succStart[d+1] = p.succStart[d] + outDeg[d]
		p.predStart[d+1] = p.predStart[d] + inDeg[d]
	}
	p.succs = make([]int32, len(edges))
	p.preds = make([]int32, len(edges))
	fill := make([]int32, nb)
	for _, e := range edges {
		d := denseOf[e.From]
		p.succs[p.succStart[d]+fill[d]] = denseOf[e.To]
		fill[d]++
	}
	for d := range fill {
		fill[d] = 0
	}
	for _, e := range edges {
		d := denseOf[e.To]
		p.preds[p.predStart[d]+fill[d]] = denseOf[e.From]
		fill[d]++
	}

	if kind == core.SBM {
		if err := p.buildQueue(); err != nil {
			return nil, err
		}
	}

	p.splitDurations(s.Graph.Time[:p.nnodes])
	simStats.plans.Add(1)
	return p, nil
}

// splitDurations pre-splits each node's timing range for the per-run
// duration draw.
func (p *Plan) splitDurations(times []ir.Timing) {
	p.minDur = make([]int32, len(times))
	p.spanDur = make([]int32, len(times))
	for n, t := range times {
		p.minDur[n] = int32(t.Min)
		p.spanDur[n] = int32(t.Max - t.Min + 1)
		if p.spanDur[n] > 1 {
			p.vary = append(p.vary, int32(n))
		}
	}
}

// buildQueue computes the SBM compile-time barrier queue in dense space: a
// linear extension of the barrier dag ordered by earliest possible firing
// time, ties by barrier id — the same selection as the reference queue
// builder in oracle_test.go, so the resulting fire order is identical. Dense index order coincides with
// ascending id order, which makes the tie-break a plain index comparison.
func (p *Plan) buildQueue() error {
	fminID, _ := p.sched.Barriers.FireWindows()
	nb := len(p.barIDs)
	fmin := make([]int, nb)
	for d, id := range p.barIDs {
		fmin[d] = fminID[id]
	}
	indeg := make([]int32, nb)
	for d := 0; d < nb; d++ {
		indeg[d] = p.predStart[d+1] - p.predStart[d]
	}
	ready := make([]int32, 0, nb)
	for d := 0; d < nb; d++ {
		if indeg[d] == 0 {
			ready = append(ready, int32(d))
		}
	}
	p.queue = make([]int32, 0, nb-1)
	for len(ready) > 0 {
		best := 0
		for k := 1; k < len(ready); k++ {
			a, b := ready[k], ready[best]
			if fmin[a] < fmin[b] || (fmin[a] == fmin[b] && a < b) {
				best = k
			}
		}
		d := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		if d != 0 { // dense 0 is the initial barrier
			p.queue = append(p.queue, d)
		}
		for k := p.succStart[d]; k < p.succStart[d+1]; k++ {
			sc := p.succs[k]
			indeg[sc]--
			if indeg[sc] == 0 {
				ready = append(ready, sc)
			}
		}
	}
	if want := nb - 1; len(p.queue) != want {
		return fmt.Errorf("machine: queue covers %d of %d barriers", len(p.queue), want)
	}
	return nil
}

// Schedule returns the schedule this plan was compiled from.
func (p *Plan) Schedule() *core.Schedule { return p.sched }

// Kind returns the machine kind this plan was compiled for.
func (p *Plan) Kind() core.MachineKind { return p.kind }

// NumBarriers returns the number of live barriers including the initial
// barrier.
func (p *Plan) NumBarriers() int { return len(p.barIDs) }

func (p *Plan) partCount(d int32) int32 { return p.partStart[d+1] - p.partStart[d] }

// denseIndex locates a schedule-level barrier id in the ascending dense
// table, or -1.
func denseIndex(barIDs []int, id int) int {
	d := sort.SearchInts(barIDs, id)
	if d < len(barIDs) && barIDs[d] == id {
		return d
	}
	return -1
}
