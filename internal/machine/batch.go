package machine

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"barriermimd/internal/core"
	"barriermimd/internal/obsv"
	"barriermimd/internal/pool"
)

// This file implements the package's one simulator: a structure-of-arrays
// kernel that simulates W seeds ("lanes") in lockstep over one compiled
// plan. Plan.RunMany runs it over a seed slice; Plan.Run runs it with a
// single lane, where the [node*W+lane] and [dense*W+lane] layouts reduce
// to plain node and dense indexing.
//
// The invariant that makes lockstep possible: the simulator's control
// skeleton — instruction positions, blocked sets, arrival counts, and
// the barrier fire *order* — depends only on the plan, never on the
// drawn durations. advance() walks each processor to its next wait
// untimed; the SBM fires in compile-time queue order; the DBM's
// calendar is pushed when arrival counts (position-derived) complete
// and pops the lowest dense index. Durations influence clocks and fire
// *times* only. So lanes never diverge in control flow, and the kernel
// decodes the instruction stream and CSR participant lists exactly once
// per chunk, with branch-free lanes-inner loops doing the per-lane
// clock arithmetic. The same invariant means deadlocks and order
// violations are structural: when one lane fails, every lane fails
// identically, so the kernel reports a whole-batch error (no lane can
// poison a sibling — they were all going to take the same path).
//
// Lanes chunk across internal/pool workers; every chunk owns private
// mutable state (recycled through the plan's chunk pool) and writes its
// lanes' outputs into disjoint column ranges of the shared BatchResult,
// so results are bit-identical for any worker or chunk count.

// BatchSummary aggregates the per-lane finish times of one RunMany
// call without per-seed allocation on the caller's side.
type BatchSummary struct {
	// Min and Max are the extreme lane finish times.
	Min, Max int
	// Median is the midpoint finish time (mean of the two middle lanes
	// for even lane counts), Mean the average, Std the population
	// standard deviation.
	Median, Mean, Std float64
}

// BatchResult holds the outcome of one Plan.RunMany call: per-lane
// results in structure-of-arrays layout plus shared once-per-batch
// state. Like Result it is pooled; call Release when done and do not
// touch it afterwards. Lane i of a BatchResult is field-for-field
// identical to Plan.Run(seeds[i]).
type BatchResult struct {
	// Schedule is the simulated schedule.
	Schedule *core.Schedule
	// Lanes is the number of seeds simulated (W).
	Lanes int
	// FinishTimes[l] is lane l's completion time.
	FinishTimes []int
	// FireOrder lists barrier ids in firing sequence. The fire order is
	// a control-flow property of the plan, so it is shared by every
	// lane (only the fire times differ).
	FireOrder []int
	// Summary aggregates FinishTimes.
	Summary BatchSummary

	// start/finish are node execution intervals, laid out
	// [node*Lanes+lane]; fireTime is laid out [dense*Lanes+lane].
	start, finish []int
	fireTime      []int
	barIDs        []int
	seeds         []int64
	// denseFire mirrors FireOrder in dense indices (trace replay).
	denseFire []int32

	bsc *batchScratch
}

// StartOf returns the start time of node n in lane l.
func (r *BatchResult) StartOf(l, n int) int { return r.start[n*r.Lanes+l] }

// FinishOf returns the finish time of node n in lane l.
func (r *BatchResult) FinishOf(l, n int) int { return r.finish[n*r.Lanes+l] }

// FinishTimeOf returns lane l's completion time.
func (r *BatchResult) FinishTimeOf(l int) int { return r.FinishTimes[l] }

// FireTimeOf returns the firing time of the schedule-level barrier id
// in lane l; ok is false for ids that are not live barriers.
func (r *BatchResult) FireTimeOf(l, id int) (t int, ok bool) {
	d := denseIndex(r.barIDs, id)
	if d < 0 || r.fireTime[d*r.Lanes+l] < 0 {
		return 0, false
	}
	return r.fireTime[d*r.Lanes+l], true
}

// Seeds returns the seed simulated by each lane (aliased, do not
// mutate).
func (r *BatchResult) Seeds() []int64 { return r.seeds }

// Release recycles the batch's storage into the plan pool it came
// from; the result must not be used afterwards. A second Release is a
// no-op.
func (r *BatchResult) Release() {
	if r.bsc != nil {
		r.bsc.release()
	}
}

// batchScratch owns one BatchResult's backing storage plus the sort
// buffer for its summary; recycled through Plan.batchPool. one is the
// Result that Plan.Run returns, aliasing res's one-lane storage.
type batchScratch struct {
	plan     *Plan
	res      BatchResult
	one      Result
	sortBuf  []int
	released bool
}

func (bs *batchScratch) release() {
	if bs.released {
		return
	}
	bs.released = true
	bs.plan.batchPool.Put(bs)
}

// getBatch draws a batch scratch sized for W lanes, growing the pooled
// storage when a larger batch comes through.
func (p *Plan) getBatch(W int) *batchScratch {
	var bs *batchScratch
	if v := p.batchPool.Get(); v != nil {
		bs = v.(*batchScratch)
		simStats.hits.Add(1)
	} else {
		bs = &batchScratch{plan: p}
		bs.res.Schedule = p.sched
		bs.res.barIDs = p.barIDs
		bs.res.bsc = bs
		bs.one = Result{Schedule: p.sched, barIDs: p.barIDs, bsc: bs}
		simStats.misses.Add(1)
	}
	bs.released = false
	nb := len(p.barIDs)
	res := &bs.res
	res.Lanes = W
	res.FinishTimes = sizeInts(res.FinishTimes, W)
	res.start = sizeInts(res.start, p.nnodes*W)
	res.finish = sizeInts(res.finish, p.nnodes*W)
	res.fireTime = sizeInts(res.fireTime, nb*W)
	res.seeds = sizeInt64s(res.seeds, W)
	bs.sortBuf = sizeInts(bs.sortBuf, W)
	if cap(res.FireOrder) < nb-1 {
		res.FireOrder = make([]int, 0, nb-1)
		res.denseFire = make([]int32, 0, nb-1)
	}
	res.FireOrder = res.FireOrder[:0]
	res.denseFire = res.denseFire[:0]
	res.Summary = BatchSummary{}
	clear(res.start)
	clear(res.finish)
	for i := range res.fireTime {
		res.fireTime[i] = -1
	}
	for l := 0; l < W; l++ {
		res.fireTime[l] = 0 // dense 0, the initial barrier, fires at 0
	}
	return bs
}

func sizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func sizeInt64s(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// chunkScratch is one worker's private simulation state for a chunk of
// lanes: per-lane clocks and durations (stride L = chunk width), plus the
// single shared control skeleton (positions, blocked set, arrivals,
// calendar) that every lane of every chunk walks identically. Recycled
// through Plan.chunkPool.
type chunkScratch struct {
	plan *Plan
	lcap int // lane capacity the slices are sized for

	dur   []int32 // [node*L+lane]
	clock []int   // [proc*L+lane]
	tmax  []int   // [L] fire-time scratch
	// rng is the sequential replica for lanes that cannot be drawn
	// directly; replayLane allocates its state window on first use.
	rng laneRNG

	pos      []int32
	blocked  []int32
	arrivals []int32
	done     int
	qpos     int
	cal      calendar
}

func (p *Plan) getChunk(L int) *chunkScratch {
	var ck *chunkScratch
	if v := p.chunkPool.Get(); v != nil {
		ck = v.(*chunkScratch)
	} else {
		nb := len(p.barIDs)
		ck = &chunkScratch{
			plan:     p,
			pos:      make([]int32, p.nprocs),
			blocked:  make([]int32, p.nprocs),
			arrivals: make([]int32, nb),
			cal:      newCalendar(nb),
		}
	}
	if ck.lcap < L {
		ck.lcap = L
		ck.dur = make([]int32, p.nnodes*L)
		ck.clock = make([]int, p.nprocs*L)
		ck.tmax = make([]int, L)
	}
	return ck
}

// errReplica is returned for RandomTimes runs when the math/rand replica
// fails its self-check (see rng.go): any other stream would break the
// contract that a (Policy, Seed) pair denotes one concrete execution.
var errReplica = errors.New("machine: math/rand replica failed self-check")

// draw fills ck.dur ([node*L+lane]) for the chunk's seeds. Under
// RandomTimes each lane draws minDur + Int31n(spanDur) per node in node
// order from rand.New(rand.NewSource(seed)). Lanes draw one at a time:
// directly from the seed words each variable-duration node reads
// (freshLane) when the plan has at most rngTap nodes, and otherwise, or
// when a draw would enter Int31n's rejection loop, by replaying the
// sequential replica (replayLane). Both reproduce the stream exactly.
func (ck *chunkScratch) draw(policy Policy, seeds []int64) error {
	p := ck.plan
	L := len(seeds)
	switch policy {
	case MinTimes:
		ck.fillMin(L)
	case MaxTimes:
		for n := 0; n < p.nnodes; n++ {
			row := ck.dur[n*L : n*L+L]
			d := p.minDur[n] + p.spanDur[n] - 1
			for l := range row {
				row[l] = d
			}
		}
	default:
		if !replicaReady() {
			return errReplica
		}
		ck.fillMin(L)
		direct := p.nnodes <= rngTap
		replays := 0
		for l, seed := range seeds {
			col := ck.dur[l:]
			if direct && freshLane(seed, p.vary, p.spanDur, col, L) {
				continue
			}
			ck.rng.replayLane(seed, p.minDur, p.spanDur, col, L)
			replays++
		}
		if replays > 0 {
			simStats.seqLanes.Add(uint64(replays))
		}
	}
	return nil
}

// fillMin sets every lane's duration to its node's minimum.
func (ck *chunkScratch) fillMin(L int) {
	p := ck.plan
	if L == 1 {
		copy(ck.dur, p.minDur)
		return
	}
	for n := 0; n < p.nnodes; n++ {
		row := ck.dur[n*L : n*L+L]
		for l := range row {
			row[l] = p.minDur[n]
		}
	}
}

// run simulates the chunk's lanes in lockstep, writing outputs into
// res columns [lo, lo+L). Only the first chunk (lo == 0) appends to the
// shared FireOrder. Structural failures (deadlock, order violation)
// abort the whole batch: every lane takes the same control path, so
// they fail identically.
func (ck *chunkScratch) run(cfg Config, seeds []int64, res *BatchResult, lo int) error {
	p := ck.plan
	L := len(seeds)
	if err := ck.draw(cfg.Policy, seeds); err != nil {
		return err
	}

	clear(ck.clock[:p.nprocs*L])
	clear(ck.arrivals)
	for pr := range ck.pos {
		ck.pos[pr] = p.procStart[pr]
		ck.blocked[pr] = -1
	}
	ck.done = 0
	ck.qpos = 0
	ck.cal.reset()

	for pr := 0; pr < p.nprocs; pr++ {
		ck.advance(pr, res, lo, L)
	}
	for ck.done < p.nprocs {
		var d int32
		if p.kind == core.SBM {
			if ck.qpos >= len(p.queue) {
				return ck.deadlockError(res, lo, L)
			}
			d = p.queue[ck.qpos]
			ready := int32(0)
			for k := p.partStart[d]; k < p.partStart[d+1]; k++ {
				pr := p.parts[k]
				switch {
				case ck.blocked[pr] == d:
					ready++
				case ck.blocked[pr] >= 0:
					return fmt.Errorf("machine: SBM order violation: processor %d waits on %d while top is %d",
						pr, p.barIDs[ck.blocked[pr]], p.barIDs[d])
				}
			}
			if ready < p.partCount(d) {
				return ck.deadlockError(res, lo, L)
			}
			ck.qpos++
		} else {
			var ok bool
			if d, ok = ck.cal.pop(); !ok {
				return ck.deadlockError(res, lo, L)
			}
		}
		ck.fire(d, cfg.BarrierCost, res, lo, L)
	}

	for l := 0; l < L; l++ {
		ft := 0
		for pr := 0; pr < p.nprocs; pr++ {
			if c := ck.clock[pr*L+l]; c > ft {
				ft = c
			}
		}
		res.FinishTimes[lo+l] = ft
	}
	return nil
}

// advance walks processor pr to its next wait (or stream end), applying
// the per-lane clock arithmetic for every instruction it passes. The
// walk itself — which instructions, which wait — is lane-invariant.
func (ck *chunkScratch) advance(pr int, res *BatchResult, lo, L int) {
	p := ck.plan
	W := res.Lanes
	pos := ck.pos[pr]
	end := p.procStart[pr+1]
	clk := ck.clock[pr*L : pr*L+L]
	for pos < end {
		v := p.items[pos]
		if v < 0 {
			d := -v - 1
			ck.pos[pr] = pos
			ck.blocked[pr] = d
			ck.arrivals[d]++
			if p.queue == nil && ck.arrivals[d] == p.partCount(d) {
				ck.cal.push(d)
			}
			return
		}
		n := int(v)
		dur := ck.dur[n*L : n*L+L]
		st := res.start[n*W+lo : n*W+lo+L]
		fi := res.finish[n*W+lo : n*W+lo+L]
		for l := 0; l < L; l++ {
			c := clk[l]
			st[l] = c
			c += int(dur[l])
			fi[l] = c
			clk[l] = c
		}
		pos++
	}
	ck.pos[pr] = pos
	ck.blocked[pr] = -1
	ck.done++
}

// fire releases dense barrier d across all lanes: one walk of the CSR
// participant list computes every lane's max-arrival clock, and a
// second walk resumes the participants at their lane's fire time.
func (ck *chunkScratch) fire(d int32, cost int, res *BatchResult, lo, L int) {
	p := ck.plan
	W := res.Lanes
	tm := ck.tmax[:L]
	for l := range tm {
		tm[l] = 0
	}
	for k := p.partStart[d]; k < p.partStart[d+1]; k++ {
		clk := ck.clock[int(p.parts[k])*L : int(p.parts[k])*L+L]
		for l := 0; l < L; l++ {
			if clk[l] > tm[l] {
				tm[l] = clk[l]
			}
		}
	}
	ft := res.fireTime[int(d)*W+lo : int(d)*W+lo+L]
	for l := 0; l < L; l++ {
		tm[l] += cost
		ft[l] = tm[l]
	}
	if lo == 0 {
		res.FireOrder = append(res.FireOrder, p.barIDs[d])
		res.denseFire = append(res.denseFire, d)
	}
	for k := p.partStart[d]; k < p.partStart[d+1]; k++ {
		pr := int(p.parts[k])
		copy(ck.clock[pr*L:pr*L+L], tm)
		ck.blocked[pr] = -1
		ck.pos[pr]++
		ck.advance(pr, res, lo, L)
	}
}

// deadlockError reports the stuck control state, plus which predecessor
// barriers of the SBM's blocking queue entry have not fired. The state is
// identical across chunks, so the error is deterministic for any worker
// count.
func (ck *chunkScratch) deadlockError(res *BatchResult, lo, L int) error {
	p := ck.plan
	W := res.Lanes
	msg := fmt.Sprintf("machine: %v deadlock:", p.kind)
	for pr := 0; pr < p.nprocs; pr++ {
		switch {
		case ck.pos[pr] >= p.procStart[pr+1]:
			msg += fmt.Sprintf(" P%d=done", pr)
		case ck.blocked[pr] >= 0:
			msg += fmt.Sprintf(" P%d=wait(b%d)", pr, p.barIDs[ck.blocked[pr]])
		default:
			msg += fmt.Sprintf(" P%d=running", pr)
		}
	}
	if p.kind == core.SBM && ck.qpos < len(p.queue) {
		d := p.queue[ck.qpos]
		msg += fmt.Sprintf(" top=b%d", p.barIDs[d])
		for k := p.predStart[d]; k < p.predStart[d+1]; k++ {
			if pd := p.preds[k]; res.fireTime[int(pd)*W+lo] < 0 {
				msg += fmt.Sprintf(" unfired-pred=b%d", p.barIDs[pd])
			}
		}
	}
	return fmt.Errorf("%s", msg)
}

// minChunkLanes is the smallest lane count worth a separate chunk: each
// chunk re-decodes the instruction stream once, so very thin chunks
// would pay that decode for too few lanes.
const minChunkLanes = 8

// simulate runs the kernel over bs's seeds, chunking lanes across
// internal/pool workers. On a structural failure it records what a run
// of the first seed records before failing (see replayBatch), recycles
// bs and returns the error. Chunk 0 — the one that appends the shared
// fire order — always runs to the failure point, because pool.ForEach
// hands out item 0 before any item can fail.
func (p *Plan) simulate(cfg Config, bs *batchScratch) error {
	res := &bs.res
	W := res.Lanes
	chunks := runtime.GOMAXPROCS(0)
	if m := (W + minChunkLanes - 1) / minChunkLanes; chunks > m {
		chunks = m
	}
	if chunks < 1 {
		chunks = 1
	}
	chunkSz := (W + chunks - 1) / chunks
	nchunks := (W + chunkSz - 1) / chunkSz
	var err error
	if nchunks == 1 {
		// Inline single-chunk path: no closure, no worker handoff — the
		// warm-path 0-alloc pins hold here.
		ck := p.getChunk(W)
		err = ck.run(cfg, res.seeds, res, 0)
		p.chunkPool.Put(ck)
	} else {
		err = pool.ForEach(0, nchunks, func(ci int) error {
			lo := ci * chunkSz
			hi := lo + chunkSz
			if hi > W {
				hi = W
			}
			ck := p.getChunk(hi - lo)
			cerr := ck.run(cfg, res.seeds[lo:hi], res, lo)
			p.chunkPool.Put(ck)
			return cerr
		})
	}
	if err != nil {
		if cfg.Recorder != nil {
			replayBatch(p, res, cfg, cfg.Recorder, true)
		}
		bs.release()
	}
	return err
}

// Run executes the plan once under cfg: the kernel with a single lane.
// The returned Result aliases that lane's pooled storage; call
// Result.Release when done with it to recycle the storage. With a
// non-nil cfg.Recorder, Run records run-start, one event per barrier
// firing at its fire time, and run-end.
func (p *Plan) Run(cfg Config) (*Result, error) {
	// The wall-clock reads are gated: a run is microseconds, so even two
	// time.Now calls would cost a measurable slice of its budget.
	var t0 time.Time
	timed := runTiming.Load()
	if timed {
		t0 = time.Now()
	}
	bs := p.getBatch(1)
	res := &bs.res
	res.seeds[0] = cfg.Seed
	if err := p.simulate(cfg, bs); err != nil {
		return nil, err
	}
	if rec := cfg.Recorder; rec != nil {
		replayBatch(p, res, cfg, rec, false)
	}
	r := &bs.one
	r.FinishTime = res.FinishTimes[0]
	r.Start, r.Finish = res.start, res.finish
	r.FireOrder, r.fireTime = res.FireOrder, res.fireTime
	simStats.runs.Add(1)
	if timed {
		runLatency[p.kind].Observe(time.Since(t0))
	}
	return r, nil
}

// RunMany executes the plan once per seed, simulating all lanes in
// lockstep. Lane i of the returned BatchResult is field-for-field
// identical to Plan.Run with Config.Seed = seeds[i] (Start/Finish
// intervals, fire times, finish time, fire order), for every policy,
// machine kind and barrier cost — the byte-identity property test pins
// this. Lanes are chunked across internal/pool workers; outputs are
// index-addressed, so results (and the recorded trace, see below) are
// bit-identical for any worker or chunk count.
//
// Simulation failures (deadlock, SBM order violation) are structural
// properties of the plan, identical in every lane, so RunMany reports
// them as a whole-batch error and returns no result; pooled state is
// recycled on that path just as on success.
//
// With a non-nil cfg.Recorder, RunMany replays each lane's event
// stream — run-start, one event per barrier firing at the lane's fire
// time, run-end — after the batch completes, in lane index order. The
// merged stream is byte-identical to running the lanes' seeds through
// Plan.Run calls recorded in the same seed order, including on failure,
// where that loop stops inside the first seed's run.
func (p *Plan) RunMany(cfg Config, seeds []int64) (*BatchResult, error) {
	W := len(seeds)
	if W == 0 {
		return nil, fmt.Errorf("machine: RunMany needs at least one seed")
	}
	bs := p.getBatch(W)
	res := &bs.res
	copy(res.seeds, seeds)
	if err := p.simulate(cfg, bs); err != nil {
		return nil, err
	}
	summarize(res, bs.sortBuf)
	if rec := cfg.Recorder; rec != nil {
		replayBatch(p, res, cfg, rec, false)
	}
	// Batched lanes count into runs too (Runs stays the total seed count
	// across both entry points); the run-latency histogram is deliberately
	// NOT observed here — it measures single-run latency, and a W-lane
	// batch sample would skew its distribution.
	simStats.runs.Add(uint64(W))
	simStats.batches.Add(1)
	simStats.lanes.Add(uint64(W))
	return res, nil
}

// summarize fills res.Summary from FinishTimes using the pooled sort
// buffer.
func summarize(res *BatchResult, buf []int) {
	W := res.Lanes
	copy(buf, res.FinishTimes)
	slices.Sort(buf)
	res.Summary.Min = buf[0]
	res.Summary.Max = buf[W-1]
	res.Summary.Median = float64(buf[(W-1)/2]+buf[W/2]) / 2
	var sum, sq float64
	for _, ft := range res.FinishTimes {
		sum += float64(ft)
	}
	mean := sum / float64(W)
	for _, ft := range res.FinishTimes {
		d := float64(ft) - mean
		sq += d * d
	}
	res.Summary.Mean = mean
	res.Summary.Std = 0
	if W > 1 {
		res.Summary.Std = math.Sqrt(sq / float64(W))
	}
}

// replayBatch records each lane's event stream in lane index order:
// run-start, the shared fire order with per-lane ticks, run-end — the
// stream a one-lane run of that seed records, so trace output is
// byte-identical at any lane or worker count. For a failed batch it
// stops after the first lane's fired prefix, with no run-end: what a
// loop of one-seed runs records before the first seed's run fails.
func replayBatch(p *Plan, res *BatchResult, cfg Config, rec obsv.Recorder, failed bool) {
	W := res.Lanes
	for l := 0; l < W; l++ {
		rec.Record(obsv.Event{Kind: obsv.KindRunStart,
			Arg0: res.seeds[l], Arg1: int64(cfg.Policy), Arg2: int64(cfg.BarrierCost)})
		for k, d := range res.denseFire {
			rec.Record(obsv.Event{Kind: obsv.KindBarrierFire,
				Tick: int64(res.fireTime[int(d)*W+l]),
				Arg0: int64(res.FireOrder[k]), Arg1: int64(p.partCount(d))})
		}
		if failed {
			return
		}
		ft := res.FinishTimes[l]
		rec.Record(obsv.Event{Kind: obsv.KindRunEnd,
			Tick: int64(ft), Arg0: int64(ft)})
	}
}
