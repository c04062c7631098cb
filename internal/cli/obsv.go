package cli

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"

	"barriermimd/internal/core"
	"barriermimd/internal/exp"
	"barriermimd/internal/machine"
	"barriermimd/internal/obsv"
	"barriermimd/internal/pool"
	"barriermimd/internal/schedcache"
	"barriermimd/internal/serve"
)

// obsvFlags holds the observability flags shared by the tools: -http
// serves /metrics + /debug/vars + /debug/pprof while the tool runs, and
// -trace records the scheduler/simulator event stream to a file
// (trace_event JSON for Perfetto, or JSONL when the path ends in .jsonl).
type obsvFlags struct {
	httpAddr *string
	httpWait *bool
	trace    *string
	traceCap *int
}

// addObsvFlags registers the shared observability flags on fs. withTrace
// controls whether the tool supports -trace (bmexp serves metrics only —
// a full-grid experiment run would overflow any reasonable ring).
func addObsvFlags(fs *flag.FlagSet, withTrace bool) *obsvFlags {
	o := &obsvFlags{
		httpAddr: fs.String("http", "", "serve /metrics (Prometheus), /debug/vars (expvar), and /debug/pprof on this address while running (e.g. localhost:6060)"),
		httpWait: fs.Bool("httpwait", false, "with -http: keep serving after the work finishes, until interrupted"),
	}
	if withTrace {
		o.trace = fs.String("trace", "", "write the structured trace to this file (.jsonl = JSON Lines, otherwise Chrome trace_event JSON for Perfetto)")
		o.traceCap = fs.Int("tracecap", obsv.DefaultRingCapacity, "trace ring capacity in events; the oldest events are dropped beyond it")
	}
	return o
}

// obsvSession is the running observability state of one tool invocation.
type obsvSession struct {
	ring   *obsv.Ring
	path   string
	server *obsv.Server
	wait   bool
}

// begin starts the -http endpoint (if requested) and allocates the
// -trace ring (if requested), announcing the endpoint on stderr so it
// does not disturb the tool's stdout output.
func (o *obsvFlags) begin(stderr io.Writer) (*obsvSession, error) {
	s := &obsvSession{}
	if o.trace != nil && *o.trace != "" {
		s.ring = obsv.NewRing(*o.traceCap)
		s.path = *o.trace
	}
	if *o.httpAddr != "" {
		srv, err := StartObsvServer(*o.httpAddr, stderr, nil)
		if err != nil {
			return nil, err
		}
		s.server = srv
		s.wait = *o.httpWait
	}
	return s, nil
}

// StartObsvServer is the one place the tools bind their observability
// listener: it enables run-latency timing (only worth measuring while
// something scrapes it), builds the DefaultRegistry exposition mux,
// lets the caller mount extra routes on it (bmserve adds its serving
// API so one listener carries both), starts serving on addr, and
// announces the endpoint on stderr. Centralizing this keeps every tool
// from growing its own drifting copy of the setup and guarantees the
// shared mux's handlers are registered exactly once.
func StartObsvServer(addr string, stderr io.Writer, mount func(mux *http.ServeMux)) (*obsv.Server, error) {
	machine.EnableRunTiming(true)
	mux := DefaultRegistry().Mux()
	if mount != nil {
		mount(mux)
	}
	srv, err := obsv.ServeHandler(addr, mux)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "observability: http://%s/metrics (Prometheus), /debug/vars, /debug/pprof\n", srv.Addr())
	return srv, nil
}

// recorder returns the session's trace recorder (nil when -trace is
// off), typed for direct assignment into core.Options / machine.Config.
func (s *obsvSession) recorder() obsv.Recorder {
	if s == nil || s.ring == nil {
		return nil
	}
	return s.ring
}

// finish writes the trace file and, with -httpwait, blocks until
// interrupted before shutting the endpoint down. Returns an error
// message suitable for fail().
func (s *obsvSession) finish(stderr io.Writer) error {
	if s == nil {
		return nil
	}
	if s.ring != nil {
		if err := writeTraceFile(s.path, s.ring); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "observability: %d trace events written to %s (%d dropped)\n",
			s.ring.Len(), s.path, s.ring.Dropped())
	}
	if s.server != nil {
		if s.wait {
			fmt.Fprintf(stderr, "observability: work done; serving http://%s until interrupted\n", s.server.Addr())
			ch := make(chan os.Signal, 1)
			signal.Notify(ch, os.Interrupt)
			<-ch
			signal.Stop(ch)
		}
		s.server.Close()
	}
	return nil
}

// writeTraceFile renders the ring in the format selected by the path's
// extension: .jsonl streams one event per line, anything else is Chrome
// trace_event JSON loadable in Perfetto.
func writeTraceFile(path string, r *obsv.Ring) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if filepath.Ext(path) == ".jsonl" {
		err = obsv.WriteJSONL(f, r)
	} else {
		err = obsv.WriteChromeTrace(f, r)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// DefaultRegistry builds the exposition registry every tool serves:
// simulation throughput and run latency, scheduler stage clocks,
// per-experiment wall time, worker-pool fan-out, and Go runtime basics.
// All metric names are documented in OBSERVABILITY.md.
func DefaultRegistry() *obsv.Registry {
	reg := &obsv.Registry{}
	reg.Register("sim", obsv.CollectorFunc(collectSim))
	reg.Register("sched", obsv.CollectorFunc(collectSched))
	reg.Register("schedcache", obsv.CollectorFunc(collectSchedCache))
	reg.Register("serve", obsv.CollectorFunc(collectServe))
	reg.Register("exp", obsv.CollectorFunc(collectExp))
	reg.Register("pool", obsv.CollectorFunc(collectPool))
	reg.Register("runtime", obsv.CollectorFunc(collectRuntime))
	return reg
}

func collectServe(w *obsv.PromWriter) {
	st := serve.GlobalStats()
	w.Counter("barriermimd_serve_requests_total", "Requests admitted by the serving layer.", "", st.Admitted)
	w.Counter("barriermimd_serve_ok_total", "Requests answered 200.", "", st.Ok)
	w.Counter("barriermimd_serve_bad_request_total", "Requests rejected 400 (malformed body, bad options, compile errors).", "", st.BadRequest)
	w.Counter("barriermimd_serve_too_large_total", "Requests rejected 413 (body over the configured bound).", "", st.TooLarge)
	w.Counter("barriermimd_serve_overload_total", "Requests rejected 429 by admission control.", "", st.Overloaded)
	w.Counter("barriermimd_serve_timeout_total", "Requests that hit their deadline before their batch completed (504).", "", st.TimedOut)
	w.Counter("barriermimd_serve_error_total", "Requests failed 5xx.", "", st.Failed)
	w.Counter("barriermimd_serve_batches_total", "Coalescer flushes.", "", st.Batches)
	w.Counter("barriermimd_serve_coalesced_total", "Requests that reached the coalescer.", "", st.Coalesced)
	w.Counter("barriermimd_serve_shared_responses_total", "Requests served from a batchmate's response bytes (dedupe).", "", st.SharedResponses)
	w.Counter("barriermimd_serve_sim_batches_total", "Merged lane-parallel RunMany calls issued by flushes.", "", st.SimBatches)
	w.Counter("barriermimd_serve_sim_seeds_total", "Simulation lanes executed through merged RunMany calls.", "", st.SimSeeds)
	w.Gauge("barriermimd_serve_queue_depth", "Requests currently parked in coalescing groups.", "", float64(st.Queued))
	w.Gauge("barriermimd_serve_inflight", "Requests admitted and not yet answered.", "", float64(st.Inflight))
	if st.BatchSize.Count > 0 {
		w.CountHistogram("barriermimd_serve_batch_size", "Requests per coalesced batch.", "", st.BatchSize)
	}
	if st.CoalesceWait.Count > 0 {
		w.Histogram("barriermimd_serve_coalesce_wait_seconds", "Enqueue-to-flush wait inside the coalescer.", "", st.CoalesceWait)
	}
	if st.Latency.Count > 0 {
		w.Histogram("barriermimd_serve_request_seconds", "Admission-to-response wall time.", "", st.Latency)
	}
}

func collectSim(w *obsv.PromWriter) {
	st := machine.Stats()
	w.Counter("barriermimd_sim_plans_compiled_total", "Simulation plans produced by machine.Compile.", "", st.PlansCompiled)
	w.Counter("barriermimd_sim_runs_total", "Compiled-plan executions (Plan.Run).", "", st.Runs)
	w.Counter("barriermimd_sim_scratch_hits_total", "Plan runs whose scratch state was recycled from the pool.", "", st.ScratchHits)
	w.Counter("barriermimd_sim_scratch_misses_total", "Plan runs that allocated fresh scratch state.", "", st.ScratchMisses)
	w.Counter("barriermimd_sim_batches_total", "Lane-parallel batch executions (Plan.RunMany).", "", st.Batches)
	w.Counter("barriermimd_sim_lanes_total", "Seeds simulated by lane-parallel batches (each lane also counts into runs_total).", "", st.Lanes)
	w.Counter("barriermimd_sim_sequential_lanes_total", "Random-timing lanes (a Plan.Run counts one) that replayed the sequential math/rand replica instead of drawing directly from seed words.", "", st.SequentialLanes)
	enabled := 0.0
	if machine.RunTimingEnabled() {
		enabled = 1
	}
	w.Gauge("barriermimd_sim_run_timing_enabled", "Whether Plan.Run wall-time measurement is on (see machine.EnableRunTiming).", "", enabled)
	var series []obsv.HistSample
	for kind, name := range []string{"sbm", "dbm"} {
		if h := machine.RunLatency(kind); h.Count > 0 {
			series = append(series, obsv.HistSample{Labels: obsv.Label("machine", name), Hist: h})
		}
	}
	if len(series) > 0 {
		w.HistogramVec("barriermimd_sim_run_seconds", "Wall time of one Plan.Run, by machine kind (recorded only while run timing is enabled).", series)
	}
}

func collectSchedCache(w *obsv.PromWriter) {
	st := schedcache.GlobalStats()
	w.Counter("barriermimd_schedcache_hits_total", "Schedule-cache lookups served from a resident entry.", "", st.Hits)
	w.Counter("barriermimd_schedcache_misses_total", "Schedule-cache lookups that computed and stored a schedule.", "", st.Misses)
	w.Counter("barriermimd_schedcache_waits_total", "Schedule-cache lookups that blocked on an in-flight computation (singleflight).", "", st.Waits)
	w.Counter("barriermimd_schedcache_evictions_total", "Schedule-cache entries displaced by the LRU bound.", "", st.Evictions)
	w.Counter("barriermimd_schedcache_rejected_total", "Schedule-cache fingerprint matches refused by exact-content verification (hash collision).", "", st.Rejected)
}

func collectSched(w *obsv.PromWriter) {
	sc := core.StageStats()
	var series []obsv.HistSample
	for _, name := range sc.Names() {
		series = append(series, obsv.HistSample{
			Labels: obsv.Label("stage", name),
			Hist:   *sc.Hist(name),
		})
	}
	if len(series) > 0 {
		w.HistogramVec("barriermimd_sched_stage_seconds", "Wall time per scheduler pipeline stage, across all ScheduleDAG runs.", series)
	}
}

func collectExp(w *obsv.PromWriter) {
	sc := exp.Stages()
	var series []obsv.HistSample
	for _, name := range sc.Names() {
		series = append(series, obsv.HistSample{
			Labels: obsv.Label("experiment", name),
			Hist:   *sc.Hist(name),
		})
	}
	if len(series) > 0 {
		w.HistogramVec("barriermimd_exp_seconds", "Wall time per experiment, across all exp.Run calls.", series)
	}
}

func collectPool(w *obsv.PromWriter) {
	batches, tasks := pool.Stats()
	w.Counter("barriermimd_pool_batches_total", "ForEach fan-out batches started.", "", batches)
	w.Counter("barriermimd_pool_tasks_total", "Task indices covered by ForEach batches.", "", tasks)
}

func collectRuntime(w *obsv.PromWriter) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.Gauge("barriermimd_go_goroutines", "Current goroutine count.", "", float64(runtime.NumGoroutine()))
	w.Gauge("barriermimd_go_heap_alloc_bytes", "Bytes of allocated heap objects.", "", float64(ms.HeapAlloc))
	w.Counter("barriermimd_go_gc_cycles_total", "Completed GC cycles.", "", uint64(ms.NumGC))
	w.Gauge("barriermimd_go_gomaxprocs", "Effective GOMAXPROCS.", "", float64(runtime.GOMAXPROCS(0)))
}
