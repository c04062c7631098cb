package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"barriermimd/internal/core"
	"barriermimd/internal/machine"
	"barriermimd/internal/obsv"
	"barriermimd/internal/pool"
	"barriermimd/internal/schedcache"
)

// groupKey is the coalescing identity: requests schedule together only
// when every decision-relevant option matches, because a flush schedules
// every unique source with one Options value (the group's seed included,
// exactly as a single-file bmsched run would).
type groupKey struct {
	procs     int
	machine   core.MachineKind
	insertion core.Insertion
	seed      int64
}

// request is one admitted request parked in (or flowing through) the
// coalescer.
type request struct {
	endpoint endpoint
	src      string
	key      groupKey
	policy   machine.Policy // simulate only
	runs     int            // simulate only

	ctx  context.Context
	enq  time.Time
	done chan response // buffered; the flush worker never blocks on it
}

// response is a fully rendered reply. Duplicate requests in one batch
// share the same body slice; bodies are write-once.
type response struct {
	status int
	body   []byte
	batch  int // size of the batch that served this request
}

// Flush triggers, recorded in KindServeBatch.Arg2.
const (
	triggerWindow   = 0 // the bounded coalescing window expired
	triggerFull     = 1 // the group reached MaxBatch
	triggerAdaptive = 2 // a completing flush drained what queued behind it
)

// coalescer groups compatible in-flight requests and flushes them as
// single batches through the engine.
type coalescer struct {
	s *Server

	// ewma tracks the typical batch size (scaled by ewmaScale) across
	// recent flushes; the adaptive early flush refuses to fire until a
	// group holds at least that many requests, so one fast arrival cannot
	// shatter a forming batch.
	ewma atomic.Int64

	mu     sync.Mutex
	groups map[groupKey]*group
}

// ewmaScale is the fixed-point scale of coalescer.ewma.
const ewmaScale = 16

// observeFlush folds one flush's size into the typical-batch-size
// estimate (alpha = 1/4). The step rounds away from zero so the estimate
// always reaches a steady batch size: a truncated step stops up to
// 3/ewmaScale short, and above one request that strands every lone
// request until its window expires.
func (c *coalescer) observeFlush(size int) {
	for {
		old := c.ewma.Load()
		d := int64(size)*ewmaScale - old
		switch {
		case d > 0:
			d += 3
		case d < 0:
			d -= 3
		}
		next := old + d/4
		if c.ewma.CompareAndSwap(old, next) {
			return
		}
	}
}

type group struct {
	reqs  []*request
	timer *time.Timer
}

func newCoalescer(s *Server) *coalescer {
	c := &coalescer{s: s, groups: make(map[groupKey]*group)}
	c.ewma.Store(1 * ewmaScale)
	return c
}

// submit runs rq through the coalescer and blocks until its response is
// ready or its deadline passes; ok is false on deadline expiry. Batches
// execute off the handler goroutine, so a request whose deadline expires
// mid-execution still gets its 504 on time (done is buffered, so the
// flush never blocks on a request that gave up).
func (c *coalescer) submit(rq *request) (response, bool) {
	c.enqueue(rq)
	select {
	case resp := <-rq.done:
		return resp, true
	case <-rq.ctx.Done():
		return response{}, false
	}
}

// enqueue parks rq in its group. The group flushes when it reaches
// MaxBatch, when the bounded window expires, or — the adaptive trigger —
// the moment an executing flush completes: run drains whatever queued
// behind it, so under load the batch size tracks how many requests
// arrive per batch execution and the window never idles the CPU, while
// at low rates requests wait at most the window.
func (c *coalescer) enqueue(rq *request) {
	c.mu.Lock()
	g := c.groups[rq.key]
	if g == nil {
		g = &group{}
		c.groups[rq.key] = g
	}
	g.reqs = append(g.reqs, rq)
	c.s.addQueued(1)
	c.s.bump(func(cn *counters) *atomic64 { return &cn.coalesced })

	if len(g.reqs) >= c.s.cfg.MaxBatch {
		batch := c.take(g)
		c.mu.Unlock()
		// A fresh goroutine, not the submitter: run chains into follow-up
		// batches that would otherwise hold this handler hostage after
		// its own response is ready.
		go c.run(rq.key, batch, triggerFull)
		return
	}
	if c.s.c.queued.Load() >= c.s.c.inflight.Load() &&
		int64(len(g.reqs))*ewmaScale >= c.ewma.Load() {
		// Every admitted request is already parked, so nothing else can
		// join this window soon and waiting it out would only add latency
		// — but only flush once the group holds a typical batch, because
		// on a serialized arrival wave each request parks before the next
		// is admitted and the bare all-parked test would shatter the wave
		// into single-request batches. The estimate converges upward
		// (post-flush drains fold larger sizes in) until batches match
		// the arrival cohort; when load drops below it, the window fires
		// instead and the estimate decays back down.
		batch := c.take(g)
		c.mu.Unlock()
		go c.run(rq.key, batch, triggerAdaptive)
		return
	}
	if g.timer == nil {
		key := rq.key
		g.timer = time.AfterFunc(c.s.cfg.Window, func() { c.flushKey(key) })
	}
	c.mu.Unlock()
}

// run executes one batch, then keeps draining: anything that parked in
// the group while the batch executed flushes immediately (no extra
// window wait) until the group is empty.
func (c *coalescer) run(key groupKey, batch []*request, trigger int) {
	for {
		c.s.execBatch(batch, trigger)
		c.mu.Lock()
		g := c.groups[key]
		if g == nil || len(g.reqs) == 0 {
			c.mu.Unlock()
			return
		}
		batch = c.take(g)
		c.mu.Unlock()
		trigger = triggerAdaptive
	}
}

// take removes and returns g's parked requests; the caller holds c.mu.
func (c *coalescer) take(g *group) []*request {
	batch := g.reqs
	g.reqs = nil
	if g.timer != nil {
		g.timer.Stop()
		g.timer = nil
	}
	c.s.addQueued(-int64(len(batch)))
	return batch
}

// flushKey is the window-expiry path, run on the timer goroutine; it
// enters the same drain loop as the other triggers.
func (c *coalescer) flushKey(key groupKey) {
	c.mu.Lock()
	g := c.groups[key]
	var batch []*request
	if g != nil && len(g.reqs) > 0 {
		batch = c.take(g)
	} else if g != nil {
		g.timer = nil
	}
	c.mu.Unlock()
	if len(batch) > 0 {
		c.run(key, batch, triggerWindow)
	}
}

// srcUnit is the per-unique-source state of one flush: each distinct
// program text is looked up once in the shared cache and serialized at
// most once.
type srcUnit struct {
	src   string
	ent   *schedcache.Entry
	err   error // compile error -> 400; scheduling or render error -> 500
	bytes []byte
}

// execBatch serves one batch end to end: dedupe sources, look the unique
// ones up in the shared cache (fanned across the worker pool), merge the
// simulation sweeps per (source, policy) into lane-parallel RunMany
// calls, and fan the responses back out.
func (s *Server) execBatch(reqs []*request, trigger int) {
	now := time.Now()
	waits := make([]time.Duration, len(reqs))
	for i, rq := range reqs {
		waits[i] = now.Sub(rq.enq)
	}
	s.observeBatch(len(reqs), waits)
	s.co.observeFlush(len(reqs))

	// Dedupe by source text. Requests whose bodies are byte-identical
	// share every downstream stage.
	srcIdx := make(map[string]int, len(reqs))
	var units []*srcUnit
	for _, rq := range reqs {
		if _, ok := srcIdx[rq.src]; !ok {
			srcIdx[rq.src] = len(units)
			units = append(units, &srcUnit{src: rq.src})
		}
	}
	s.trace(obsv.Event{Kind: obsv.KindServeBatch,
		Arg0: int64(len(reqs)), Arg1: int64(len(units)), Arg2: int64(trigger)})

	// Look each unique source up once. A resident (text, options) entry
	// is served as is; a miss compiles and schedules the text once under
	// the cache's singleflight. Every unit keeps its own error, so one
	// bad program cannot fail its batchmates. A traced server hands the
	// cache a recorder that takes the server's trace lock; an untraced
	// one hands it nil.
	opts := reqs[0].key.options()
	var rec obsv.Recorder
	if s.cfg.Recorder != nil {
		rec = tracer{s}
	}
	pool.ForEach(s.cfg.Workers, len(units), func(i int) error {
		u := units[i]
		u.ent, u.err = s.cache.Source(u.src, opts, CompileDAG, rec)
		return nil
	})

	// Render the schedule-endpoint body (bmsched -json byte-identical)
	// once per unit that needs it.
	for _, rq := range reqs {
		if rq.endpoint != epSchedule {
			continue
		}
		u := units[srcIdx[rq.src]]
		if u.bytes == nil && u.err == nil {
			raw, jerr := u.ent.Schedule().ExportJSON()
			if jerr != nil {
				u.err = jerr
			} else {
				u.bytes = append(raw, '\n')
			}
		}
	}

	simBodies := s.execSims(reqs, units, srcIdx)

	// Fan responses out, counting every request served from a body that
	// another request in the batch already rendered. done is buffered, so
	// an expired request that already gave up never blocks the flush.
	seen := make(map[simKey]bool, len(reqs))
	shared := 0
	for _, rq := range reqs {
		u := units[srcIdx[rq.src]]
		var resp response
		switch {
		case u.err != nil:
			resp = errResponse(errStatus(u.err), u.err)
		case rq.endpoint == epSchedule:
			resp = response{status: http.StatusOK, body: u.bytes}
		default:
			resp = simBodies[simKey{srcIdx[rq.src], rq.policy, rq.runs}]
		}
		// Schedule responses dedupe per source; simulate responses per
		// (source, policy, runs) workload. runs is zero on the schedule
		// endpoint, so the two key spaces cannot collide.
		k := simKey{srcIdx[rq.src], rq.policy, rq.runs}
		if seen[k] {
			shared++
		} else {
			seen[k] = true
		}
		resp.batch = len(reqs)
		rq.done <- resp
	}
	if shared > 0 {
		s.c.shared.Add(uint64(shared))
		global.shared.Add(uint64(shared))
	}
}

// errStatus is the status a unit's error answers with: 400 for a program
// that does not compile, 500 for a failed schedule or render.
func errStatus(err error) int {
	var compileErr *schedcache.CompileError
	if errors.As(err, &compileErr) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func errResponse(status int, err error) response {
	b, _ := json.Marshal(errorBody{Error: err.Error()})
	return response{status: status, body: append(b, '\n')}
}

// simKey identifies one distinct simulate workload within a batch: a
// source, a timing policy, and a sweep width (the base seed is fixed by
// the group). Requests with equal keys share one rendered response.
type simKey struct {
	srcI   int
	policy machine.Policy
	runs   int
}

// mergeKey groups simKeys that can share one RunMany call: same plan,
// same timing policy (the seed list is per-lane).
type mergeKey struct {
	srcI   int
	policy machine.Policy
}

// execSims merges every simulate request in the batch into as few
// lane-parallel RunMany calls as possible — one per (source, policy) —
// and renders one response per distinct (source, policy, runs)
// workload. Lane i of a RunMany batch is field-identical to
// Plan.Run(seeds[i]), so merged sweeps return exactly what per-request
// sweeps would.
func (s *Server) execSims(reqs []*request, units []*srcUnit, srcIdx map[string]int) map[simKey]response {
	type simSlice struct {
		key simKey
		off int // offset of this workload's lanes in the merged seed list
	}
	type merge struct {
		seeds  []int64
		slices []simSlice
	}
	merges := make(map[mergeKey]*merge)
	var order []mergeKey // deterministic execution order
	out := make(map[simKey]response)

	for _, rq := range reqs {
		if rq.endpoint != epSimulate {
			continue
		}
		i := srcIdx[rq.src]
		if units[i].err != nil {
			continue
		}
		sk := simKey{i, rq.policy, rq.runs}
		if _, ok := out[sk]; ok {
			continue // a batchmate already claimed this workload
		}
		out[sk] = response{} // reserve
		mk := mergeKey{i, rq.policy}
		m := merges[mk]
		if m == nil {
			m = &merge{}
			merges[mk] = m
			order = append(order, mk)
		}
		m.slices = append(m.slices, simSlice{key: sk, off: len(m.seeds)})
		for r := 0; r < rq.runs; r++ {
			m.seeds = append(m.seeds, rq.key.seed+int64(r))
		}
	}

	for _, mk := range order {
		m := merges[mk]
		plan, err := units[mk.srcI].ent.Plan()
		if err == nil && len(m.seeds) > 0 {
			var br *machine.BatchResult
			br, err = plan.RunMany(machine.Config{Policy: mk.policy}, m.seeds)
			if err == nil {
				s.c.simSeeds.Add(uint64(len(m.seeds)))
				global.simSeeds.Add(uint64(len(m.seeds)))
				s.c.simRuns.Add(1)
				global.simRuns.Add(1)
				for _, sl := range m.slices {
					out[sl.key] = renderSim(br.FinishTimes[sl.off : sl.off+sl.key.runs])
				}
				br.Release()
				continue
			}
		}
		for _, sl := range m.slices {
			if err != nil {
				out[sl.key] = errResponse(http.StatusInternalServerError, err)
			} else {
				out[sl.key] = renderSim(nil)
			}
		}
	}
	return out
}

// renderSim builds one /v1/simulate response body from a workload's
// finish times.
func renderSim(finishes []int) response {
	res := SimResult{FinishTimes: append([]int{}, finishes...)}
	if len(finishes) > 0 {
		res.Min, res.Max = finishes[0], finishes[0]
		sum := 0
		for _, f := range finishes {
			if f < res.Min {
				res.Min = f
			}
			if f > res.Max {
				res.Max = f
			}
			sum += f
		}
		res.Mean = float64(sum) / float64(len(finishes))
		var sq float64
		for _, f := range finishes {
			d := float64(f) - res.Mean
			sq += d * d
		}
		if len(finishes) > 1 {
			res.Stddev = math.Sqrt(sq / float64(len(finishes)))
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return errResponse(http.StatusInternalServerError, err)
	}
	return response{status: http.StatusOK, body: append(b, '\n')}
}
