package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"barriermimd/internal/core"
	"barriermimd/internal/machine"
	"barriermimd/internal/metrics"
	"barriermimd/internal/serve"
	"barriermimd/internal/synth"
)

// serveMix sizes an open-loop serving workload. Requests arrive as a
// Poisson process; simFrac of them are /v1/simulate with runs seeds and
// the rest /v1/schedule. Every request uses the same scheduler seed, so
// all fall into one coalescing group. Programs are scheduled for the
// 8-processor DBM, which never hit the known SBM scheduling failure in
// the inputs this workload draws.
//
// serve-unique arrives at 100/s: at 250/s its cache misses allocate
// enough that garbage collection marks about 15% of the time, which puts
// p90 latency on the edge of the GC-affected requests, and p90 then
// swung between 4.5 and 16 ms from run to run (README.md).
type serveMix struct {
	rate     float64 // arrivals per second
	programs int     // distinct programs; 0 gives every request its own
	stmts    int
	vars     int
	simFrac  float64
	runs     int
	prefix   int // requests whose responses are digested
}

var (
	serveDupFull    = serveMix{rate: 1000, programs: 8, stmts: 60, vars: 10, simFrac: 0.8, runs: 8, prefix: 64}
	serveDupTiny    = serveMix{rate: 200, programs: 2, stmts: 10, vars: 6, simFrac: 0.8, runs: 4, prefix: 8}
	serveUniqueFull = serveMix{rate: 100, stmts: 60, vars: 10, simFrac: 0.8, runs: 8, prefix: 64}
	serveUniqueTiny = serveMix{rate: 100, stmts: 10, vars: 6, simFrac: 0.8, runs: 4, prefix: 8}
)

const (
	serveStream = 200_000
	serveWarm   = 800_000
	serveProcs  = 8
	// lateLimit is the latency limit behind goodput: a response counts
	// toward ops_per_s only if it finished this soon after its due time.
	lateLimit = 50 * time.Millisecond
)

type arrival struct {
	at   time.Duration // offset of the due time from the start
	prog int64
	sim  bool
}

// reply is what came back for one request.
type reply struct {
	status int
	lat    time.Duration // completion minus due time
	late   time.Duration // send minus due time
	hash   [32]byte      // schedule responses
	body   []byte        // simulate responses (small)
}

type serveLoad struct {
	mx       serveMix
	seed     int64
	corrupt  func([]byte) []byte
	srv      *serve.Server
	h        http.Handler
	arrivals []arrival
	bodies   [][]byte // request body of each arrival
	replies  []reply

	stats0 serve.Stats
	cache0 metrics.MemoStats
	sim0   metrics.SimStats
}

func setupServeDup(o *options) (instance, error) {
	if o.tiny {
		return setupServe(o, serveDupTiny)
	}
	return setupServe(o, serveDupFull)
}

func setupServeUnique(o *options) (instance, error) {
	if o.tiny {
		return setupServe(o, serveUniqueTiny)
	}
	return setupServe(o, serveUniqueFull)
}

func setupServe(o *options, mx serveMix) (instance, error) {
	s := &serveLoad{mx: mx, seed: o.seed, corrupt: o.corrupt, srv: serve.New(serve.Config{})}
	s.h = s.srv.Handler()
	rng := rand.New(rand.NewSource(o.seed))
	at := time.Duration(0)
	for i := int64(0); ; i++ {
		at += time.Duration(rng.ExpFloat64() / mx.rate * float64(time.Second))
		if at > o.duration && int(i) >= mx.prefix {
			break
		}
		a := arrival{at: at, prog: i, sim: rng.Float64() < mx.simFrac}
		if mx.programs > 0 {
			a.prog = int64(rng.Intn(mx.programs))
		}
		s.arrivals = append(s.arrivals, a)
	}
	s.replies = make([]reply, len(s.arrivals))

	// Render every request body now, so the timed generator only sleeps
	// and dispatches; generating a program on the generator goroutine
	// made it send late whenever the next arrival was due sooner.
	s.bodies = make([][]byte, len(s.arrivals))
	rendered := map[arrival][]byte{}
	for i, a := range s.arrivals {
		a.at = 0 // a body depends only on the program and the endpoint
		b := rendered[a]
		if b == nil {
			var err error
			if b, err = s.body(serveStream, a.prog, a.sim); err != nil {
				return nil, err
			}
			rendered[a] = b
		}
		s.bodies[i] = b
	}

	// One warm request per distinct body: the duplicate workload's own
	// programs, the unique workload's a separate set of the same size.
	warm, stream := mx.programs, int64(serveStream)
	if warm == 0 {
		warm, stream = 8, serveWarm
	}
	for p := int64(0); p < int64(warm); p++ {
		for _, sim := range []bool{false, true} {
			body, err := s.body(stream, p, sim)
			if err != nil {
				return nil, err
			}
			rec := httptest.NewRecorder()
			s.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path(sim), bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("warm request: status %d: %s", rec.Code, rec.Body.Bytes())
			}
		}
	}
	return s, nil
}

func (s *serveLoad) close() {}

func path(sim bool) string {
	if sim {
		return "/v1/simulate"
	}
	return "/v1/schedule"
}

func (s *serveLoad) source(stream, prog int64) (string, error) {
	p, err := synth.Generate(synth.Config{Statements: s.mx.stmts, Variables: s.mx.vars}, streamSeed(s.seed, stream, prog))
	if err != nil {
		return "", err
	}
	return p.String(), nil
}

func (s *serveLoad) body(stream, prog int64, sim bool) ([]byte, error) {
	src, err := s.source(stream, prog)
	if err != nil {
		return nil, err
	}
	req := serve.Request{Src: src, Procs: serveProcs, Machine: "dbm", Seed: s.seed}
	if sim {
		req.Runs = s.mx.runs
	}
	return json.Marshal(req)
}

// run is the open-loop generator: one goroutine sleeps until each due
// time and hands the request to a fresh goroutine, so a slow response
// never delays later arrivals. Latency runs from the due time.
func (s *serveLoad) run(tr *tracer, _ time.Time, m *measurement) error {
	s.stats0, s.cache0, s.sim0 = s.srv.Stats(), s.srv.Cache().Stats(), machine.Stats()
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for i, a := range s.arrivals {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		s.replies[i].late = time.Since(due)
		wg.Add(1)
		go func(i int, due time.Time, body []byte, sim bool) {
			defer wg.Done()
			s.send(tr, i, due, body, sim)
		}(i, due, s.bodies[i], a.sim)
	}
	wg.Wait()
	return nil
}

// send serves one request in-process through the server's handler.
func (s *serveLoad) send(tr *tracer, i int, due time.Time, body []byte, sim bool) {
	root := tr.root(int64(i), opSpan)
	req := httptest.NewRequest(http.MethodPost, path(sim), bytes.NewReader(body))
	rec := httptest.NewRecorder()
	f := tr.child(&root, "serve.ServeHTTP")
	s.h.ServeHTTP(rec, req)
	f.end()
	done := time.Now()
	root.end()
	out := rec.Body.Bytes()
	if s.corrupt != nil {
		out = s.corrupt(out)
	}
	r := &s.replies[i]
	r.status = rec.Code
	r.lat = done.Sub(due)
	if sim {
		r.body = out
	} else {
		r.hash = sha256.Sum256(out)
	}
}

// expected is the library path's answer for one distinct request.
type expected struct {
	hash     [32]byte // ExportJSON bytes plus the newline the server adds
	finishes []int    // Plan.Run finish times of seeds Seed..Seed+runs-1
	err      error
}

func (s *serveLoad) expect(prog int64, sim bool) expected {
	src, err := s.source(serveStream, prog)
	if err != nil {
		return expected{err: err}
	}
	opts := core.DefaultOptions(serveProcs)
	opts.Machine = core.DBM
	opts.Seed = s.seed
	sched, err := schedule(src, opts)
	if err != nil {
		return expected{err: err}
	}
	if !sim {
		raw, err := sched.ExportJSON()
		if err != nil {
			return expected{err: err}
		}
		return expected{hash: sha256.Sum256(append(raw, '\n'))}
	}
	plan, err := machine.Compile(sched, core.DBM)
	if err != nil {
		return expected{err: err}
	}
	var e expected
	for r := 0; r < s.mx.runs; r++ {
		res, err := plan.Run(machine.Config{Policy: machine.RandomTimes, Seed: s.seed + int64(r)})
		if err != nil {
			return expected{err: err}
		}
		e.finishes = append(e.finishes, res.FinishTime)
		res.Release()
	}
	return e
}

// verify compares every distinct response with the library path after
// the timed phase, then derives goodput, latency and the serve layer's
// counters.
func (s *serveLoad) verify(_ *tracer, m *measurement) error {
	st, cs, ss := s.srv.Stats(), s.srv.Cache().Stats(), machine.Stats()

	type key struct {
		prog int64
		sim  bool
	}
	keys := map[key]int{}
	var order []key
	for _, a := range s.arrivals {
		k := key{a.prog, a.sim}
		if _, ok := keys[k]; !ok {
			keys[k] = len(order)
			order = append(order, k)
		}
	}
	want := make([]expected, len(order))
	parallel(len(order), func(i int) { want[i] = s.expect(order[i].prog, order[i].sim) })

	var late []sample
	for i, a := range s.arrivals {
		r := s.replies[i]
		m.attempted++
		late = append(late, sample{float64(r.late) / 1e6, 1})
		err := s.check(a, r, want[keys[key{a.prog, a.sim}]])
		if err != nil {
			m.fail(fmt.Errorf("request %d: %w", i, err))
			m.samples = append(m.samples, sample{math.Inf(1), 1})
			continue
		}
		m.samples = append(m.samples, sample{float64(r.lat) / 1e6, 1})
		if r.lat <= lateLimit {
			m.good++
		}
		if i < s.mx.prefix {
			writeInts(m.digest, int64(i), int64(r.status))
			m.digest.Write(r.hash[:])
			m.digest.Write(r.body)
		}
	}

	l := m.layer
	batches := delta(st.BatchSize, s.stats0.BatchSize)
	waits := delta(st.CoalesceWait, s.stats0.CoalesceWait)
	lat := delta(st.Latency, s.stats0.Latency)
	l["serve.batch_mean"] = ratio(float64(batches.Sum), float64(batches.Count))
	l["serve.coalesce_wait_p50_ms"] = float64(waits.Quantile(0.50)) / 1e6
	l["serve.coalesce_wait_p90_ms"] = float64(waits.Quantile(0.90)) / 1e6
	l["serve.server_p50_ms"] = float64(lat.Quantile(0.50)) / 1e6
	l["serve.shared_frac"] = ratio(float64(st.SharedResponses-s.stats0.SharedResponses), float64(st.Admitted-s.stats0.Admitted))
	l["serve.lanes_per_run_many"] = ratio(float64(st.SimSeeds-s.stats0.SimSeeds), float64(st.SimBatches-s.stats0.SimBatches))
	l["serve.overloaded"] = float64(st.Overloaded - s.stats0.Overloaded)
	l["serve.timed_out"] = float64(st.TimedOut - s.stats0.TimedOut)
	hits, waited := float64(cs.Hits-s.cache0.Hits), float64(cs.Waits-s.cache0.Waits)
	lookups := hits + waited + float64(cs.Misses-s.cache0.Misses) + float64(cs.Rejected-s.cache0.Rejected)
	l["schedcache.hit_frac"] = ratio(hits+waited, lookups)
	l["schedcache.waits"] = waited
	l["schedcache.evictions"] = float64(cs.Evictions - s.cache0.Evictions)
	l["schedcache.rejected"] = float64(cs.Rejected - s.cache0.Rejected)
	l["machine.lanes_per_batch"] = ratio(float64(ss.Lanes-s.sim0.Lanes), float64(ss.Batches-s.sim0.Batches))
	l["loadgen.late_p99_ms"] = quantile(late, 0.99)
	l["loadgen.late_max_ms"] = quantile(late, 1)
	l["loadgen.op_p99_ms"] = quantile(m.samples, 0.99)
	m.extra["late_p99_ms"] = l["loadgen.late_p99_ms"]
	if l["loadgen.late_p99_ms"] > 1 {
		m.flags = append(m.flags, fmt.Sprintf("generator sent 1%% of requests more than %.2f ms late", l["loadgen.late_p99_ms"]))
	}
	return nil
}

// check is the per-request oracle.
func (s *serveLoad) check(a arrival, r reply, want expected) error {
	if want.err != nil {
		return fmt.Errorf("library path: %w", want.err)
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, r.body)
	}
	if !a.sim {
		if r.hash != want.hash {
			return fmt.Errorf("schedule response differs from ScheduleDAG+ExportJSON of program %d", a.prog)
		}
		return nil
	}
	var got serve.SimResult
	if err := json.Unmarshal(r.body, &got); err != nil {
		return fmt.Errorf("decode simulate response: %w", err)
	}
	if len(got.FinishTimes) != len(want.finishes) {
		return fmt.Errorf("simulate response has %d finish times, want %d", len(got.FinishTimes), len(want.finishes))
	}
	lo, hi := want.finishes[0], want.finishes[0]
	for i, f := range want.finishes {
		if got.FinishTimes[i] != f {
			return fmt.Errorf("simulate run %d finished at %d, Plan.Run says %d", i, got.FinishTimes[i], f)
		}
		lo, hi = min(lo, f), max(hi, f)
	}
	if got.Min != lo || got.Max != hi {
		return fmt.Errorf("simulate min/max %d/%d, want %d/%d", got.Min, got.Max, lo, hi)
	}
	return nil
}

// delta is the histogram of the observations between two snapshots.
func delta(after, before metrics.Histogram) metrics.Histogram {
	d := metrics.Histogram{Count: after.Count - before.Count, Sum: after.Sum - before.Sum}
	for i := range d.Bucket {
		d.Bucket[i] = after.Bucket[i] - before.Bucket[i]
	}
	return d
}

// parallel runs fn(0..n-1) on GOMAXPROCS goroutines and waits for them.
func parallel(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
