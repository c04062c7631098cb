package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"barriermimd/internal/core"
	"barriermimd/internal/dag"
	"barriermimd/internal/ir"
	"barriermimd/internal/lang"
	"barriermimd/internal/machine"
	"barriermimd/internal/obsv"
	"barriermimd/internal/opt"
	"barriermimd/internal/schedcache"
)

// Default bounds applied when the corresponding Config field is zero.
const (
	DefaultWindow      = 2 * time.Millisecond
	DefaultMaxBatch    = 64
	DefaultMaxInflight = 1024
	DefaultMaxBody     = 1 << 20 // 1 MiB
	DefaultTimeout     = 10 * time.Second
	// maxRuns bounds the per-request simulation sweep width; larger
	// requests are rejected with 400 rather than letting one caller
	// monopolize the merge.
	maxRuns = 1 << 16
)

// Config parameterizes a Server. The zero value serves with the
// defaults above.
type Config struct {
	// Window is the bounded coalescing wait: the oldest request of a
	// group flushes at most this long after arriving
	// (<= 0 = DefaultWindow).
	Window time.Duration
	// MaxBatch flushes a group early when it reaches this many requests
	// (0 = DefaultMaxBatch); 1 serves every request as its own batch.
	MaxBatch int
	// MaxInflight bounds admitted-but-unanswered requests; beyond it
	// requests are rejected with 429 (0 = DefaultMaxInflight).
	MaxInflight int
	// MaxBody bounds the request body in bytes; beyond it requests are
	// rejected with 413 (0 = DefaultMaxBody).
	MaxBody int64
	// Timeout is the per-request deadline; a request's deadline_ms may
	// shorten it but not extend it (0 = DefaultTimeout).
	Timeout time.Duration
	// CacheSize is the schedule-cache entry bound
	// (0 = schedcache.DefaultCapacity).
	CacheSize int
	// Workers bounds the parse and schedule fan-out per flush
	// (0 = GOMAXPROCS).
	Workers int
	// Recorder, when non-nil, receives serve-domain trace events
	// (KindServeBatch, KindServeRequest, KindServeOverload) and the
	// schedule cache's sched-cache-{hit,miss,wait,evict} events. The
	// server serializes its calls, so it need not be goroutine-safe.
	Recorder obsv.Recorder
}

func (cfg Config) withDefaults() Config {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	return cfg
}

// Server coalesces schedule and simulate requests over one shared
// schedule cache. Create with New, expose with Mount (or Handler), and
// drain in-flight work by shutting down the owning http.Server — every
// parked request belongs to a blocked handler, so net/http's graceful
// Shutdown drains the coalescer too.
type Server struct {
	cfg   Config
	cache *schedcache.Cache
	co    *coalescer
	c     counters

	// traceMu serializes Recorder calls: handlers and flushes record
	// concurrently, and a Recorder need not be goroutine-safe.
	traceMu sync.Mutex
}

// New returns a server ready to Mount.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, cache: schedcache.New(cfg.CacheSize)}
	s.co = newCoalescer(s)
	return s
}

// Config returns the configuration the server serves with: the one
// passed to New, with Window, MaxBatch, MaxInflight, MaxBody and Timeout
// defaulted as the Config field comments say.
func (s *Server) Config() Config { return s.cfg }

// Cache exposes the server's schedule cache (stats, tests).
func (s *Server) Cache() *schedcache.Cache { return s.cache }

// Stats snapshots this server's traffic counters.
func (s *Server) Stats() Stats { return s.c.snapshot() }

// Mount registers the serving API on mux:
//
//	POST /v1/schedule  — schedule one program; the response body is
//	                     byte-identical to `bmsched -json`
//	POST /v1/simulate  — schedule and simulate; finish_times[i] equals
//	                     run i of `bmsim` for the same seed
//	GET  /v1/stats     — JSON traffic counters
//	GET  /healthz      — liveness probe
func (s *Server) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/v1/schedule", func(w http.ResponseWriter, r *http.Request) {
		s.handle(w, r, epSchedule)
	})
	mux.HandleFunc("/v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		s.handle(w, r, epSimulate)
	})
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
}

// Handler returns a standalone mux carrying only the serving API (tests
// and embedders that do not want the observability routes).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Mount(mux)
	return mux
}

type endpoint uint8

const (
	epSchedule endpoint = iota
	epSimulate
)

// Request is the JSON body of /v1/schedule and /v1/simulate. The
// scheduling fields mirror bmsched's flags; Policy and Runs mirror
// bmsim's and are ignored by /v1/schedule.
type Request struct {
	// Src is the benchmark-language program text (bmsched/bmsim input).
	Src string `json:"src"`
	// Procs is the machine size (default 8, like the CLIs; at most
	// core.MaxProcessors).
	Procs int `json:"procs,omitempty"`
	// Machine is "sbm" (default) or "dbm".
	Machine string `json:"machine,omitempty"`
	// Insertion is "conservative" (default) or "optimal".
	Insertion string `json:"insertion,omitempty"`
	// Seed is the scheduler tie-break seed and the simulation base seed.
	Seed int64 `json:"seed,omitempty"`
	// Policy is the timing policy for /v1/simulate: "random" (default),
	// "min", or "max".
	Policy string `json:"policy,omitempty"`
	// Runs is the number of simulated executions for /v1/simulate
	// (default 20, like bmsim); run r uses seed Seed+r.
	Runs int `json:"runs,omitempty"`
	// DeadlineMS shortens the server's per-request deadline; a longer
	// value is capped at it.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// SimResult is the JSON body of a /v1/simulate response.
type SimResult struct {
	// FinishTimes[r] is the completion time of run r (seed Seed+r),
	// identical to the finish column of bmsim's run table.
	FinishTimes []int `json:"finish_times"`
	// Min/Max/Mean/Stddev aggregate FinishTimes (population stddev).
	Min    int     `json:"min"`
	Max    int     `json:"max"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, _ := json.Marshal(errorBody{Error: msg})
	w.Write(append(b, '\n'))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	b, err := json.MarshalIndent(struct {
		Stats
		SchedCache string `json:"sched_cache"`
	}{st, s.cache.Stats().String()}, "", "  ")
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

// handle is the shared admission + decode + coalesce + respond path of
// the two POST endpoints.
func (s *Server) handle(w http.ResponseWriter, r *http.Request, ep endpoint) {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	start := time.Now()

	// Admission: bound the number of requests inside the server. The
	// slot is taken before the body is read so overload sheds work as
	// early as possible.
	if s.addInflight(1) > int64(s.cfg.MaxInflight) {
		n := s.addInflight(-1)
		s.bump(func(c *counters) *atomic64 { return &c.overload })
		s.trace(obsv.Event{Kind: obsv.KindServeOverload, Arg0: n})
		writeJSONError(w, http.StatusTooManyRequests, "server overloaded, retry later")
		return
	}
	defer s.addInflight(-1)
	s.bump(func(c *counters) *atomic64 { return &c.admitted })

	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.bump(func(c *counters) *atomic64 { return &c.tooLarge })
			writeJSONError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		s.bump(func(c *counters) *atomic64 { return &c.badReq })
		writeJSONError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return
	}

	rq, err := s.buildRequest(&req, ep)
	if err != nil {
		s.bump(func(c *counters) *atomic64 { return &c.badReq })
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}

	// deadline_ms may shorten the server's timeout, never extend it.
	deadline := s.cfg.Timeout
	if ms := req.DeadlineMS; ms > 0 && ms < int64(deadline/time.Millisecond) {
		deadline = time.Duration(ms) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	rq.ctx = ctx
	rq.enq = start

	resp, ok := s.co.submit(rq)
	if !ok {
		s.bump(func(c *counters) *atomic64 { return &c.timeout })
		s.trace(obsv.Event{Kind: obsv.KindServeRequest,
			Arg0: int64(ep), Arg1: outcomeTimeout})
		writeJSONError(w, http.StatusGatewayTimeout, "deadline exceeded before the batch completed")
		return
	}

	switch {
	case resp.status == http.StatusOK:
		s.bump(func(c *counters) *atomic64 { return &c.ok })
	case resp.status >= 500:
		s.bump(func(c *counters) *atomic64 { return &c.failed })
	default:
		s.bump(func(c *counters) *atomic64 { return &c.badReq })
	}
	s.observeLatency(time.Since(start))
	s.trace(obsv.Event{Kind: obsv.KindServeRequest,
		Arg0: int64(ep), Arg1: outcomeOf(resp.status), Arg2: int64(resp.batch)})

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

const (
	outcomeOK      = 0
	outcomeBad     = 1
	outcomeTimeout = 2
	outcomeError   = 3
)

func outcomeOf(status int) int64 {
	switch {
	case status == http.StatusOK:
		return outcomeOK
	case status >= 500:
		return outcomeError
	default:
		return outcomeBad
	}
}

func (s *Server) trace(ev obsv.Event) {
	if s.cfg.Recorder == nil {
		return
	}
	s.traceMu.Lock()
	s.cfg.Recorder.Record(ev)
	s.traceMu.Unlock()
}

// tracer is the Recorder a flush hands the schedule cache: it records
// through Server.trace, so cache events take the same lock as the
// server's own.
type tracer struct{ s *Server }

func (t tracer) Record(ev obsv.Event) { t.s.trace(ev) }

// buildRequest validates and normalizes one decoded request into the
// coalescer's internal form.
func (s *Server) buildRequest(req *Request, ep endpoint) (*request, error) {
	if strings.TrimSpace(req.Src) == "" {
		return nil, errors.New("src: empty program")
	}
	procs := req.Procs
	if procs == 0 {
		procs = 8
	}
	if procs < 1 {
		return nil, fmt.Errorf("procs = %d, need >= 1", procs)
	}
	if procs > core.MaxProcessors {
		return nil, fmt.Errorf("procs = %d, need <= %d", procs, core.MaxProcessors)
	}
	mk, err := ParseMachine(orDefault(req.Machine, "sbm"))
	if err != nil {
		return nil, err
	}
	ins, err := ParseInsertion(orDefault(req.Insertion, "conservative"))
	if err != nil {
		return nil, err
	}
	rq := &request{
		endpoint: ep,
		src:      req.Src,
		key:      groupKey{procs: procs, machine: mk, insertion: ins, seed: req.Seed},
		done:     make(chan response, 1),
	}
	if ep == epSimulate {
		pol, err := ParsePolicy(orDefault(req.Policy, "random"))
		if err != nil {
			return nil, err
		}
		runs := req.Runs
		if runs == 0 {
			runs = 20
		}
		if runs < 0 || runs > maxRuns {
			return nil, fmt.Errorf("runs = %d, need 0 < runs <= %d", runs, maxRuns)
		}
		rq.policy = pol
		rq.runs = runs
	}
	return rq, nil
}

func orDefault(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

// options expands a group key into full scheduling options: the key
// fields over the paper defaults.
func (k groupKey) options() core.Options {
	opts := core.DefaultOptions(k.procs)
	opts.Machine = k.machine
	opts.Insertion = k.insertion
	opts.Seed = k.seed
	return opts
}

// CompileDAG runs the CLI compilation pipeline — parse, compile,
// optimize, build the instruction DAG with the paper's timings — on one
// program source. It is the exact pipeline behind bmsched and bmsim, so
// serving and CLI runs see identical graphs.
func CompileDAG(src string) (*dag.Graph, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	naive, err := lang.Compile(prog)
	if err != nil {
		return nil, err
	}
	optimized, _, err := opt.Optimize(naive)
	if err != nil {
		return nil, err
	}
	return dag.Build(optimized, ir.DefaultTimings())
}

// ParseMachine maps a machine name ("sbm" or "dbm") to its kind; the
// CLI -machine flag and the serving API share this parser.
func ParseMachine(name string) (core.MachineKind, error) {
	switch strings.ToLower(name) {
	case "sbm":
		return core.SBM, nil
	case "dbm":
		return core.DBM, nil
	}
	return 0, fmt.Errorf("unknown machine %q (want sbm or dbm)", name)
}

// ParseInsertion maps an insertion-algorithm name; shared by the CLI
// -insertion flag and the serving API.
func ParseInsertion(name string) (core.Insertion, error) {
	switch strings.ToLower(name) {
	case "conservative":
		return core.Conservative, nil
	case "optimal":
		return core.Optimal, nil
	}
	return 0, fmt.Errorf("unknown insertion %q (want conservative or optimal)", name)
}

// ParsePolicy maps a timing-policy name; shared by the CLI -policy flag
// and the serving API.
func ParsePolicy(name string) (machine.Policy, error) {
	switch strings.ToLower(name) {
	case "random":
		return machine.RandomTimes, nil
	case "min":
		return machine.MinTimes, nil
	case "max":
		return machine.MaxTimes, nil
	}
	return 0, fmt.Errorf("unknown policy %q (want random, min, or max)", name)
}
