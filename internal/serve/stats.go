package serve

import (
	"sync/atomic"
	"time"

	"barriermimd/internal/metrics"
)

// counters is the live, atomically updated state behind Stats. Every
// Server owns one, and every observation is mirrored into the
// process-wide aggregate read by the Prometheus registry.
type counters struct {
	admitted  atomic.Uint64
	ok        atomic.Uint64
	badReq    atomic.Uint64
	tooLarge  atomic.Uint64
	overload  atomic.Uint64
	timeout   atomic.Uint64
	failed    atomic.Uint64
	batches   atomic.Uint64
	coalesced atomic.Uint64
	shared    atomic.Uint64
	simSeeds  atomic.Uint64
	simRuns   atomic.Uint64

	queued   atomic.Int64
	inflight atomic.Int64

	batchSize    metrics.AtomicHistogram
	coalesceWait metrics.AtomicHistogram
	latency      metrics.AtomicHistogram
}

// global aggregates traffic across every Server in the process, for the
// Prometheus registry (internal/cli's DefaultRegistry exports it).
var global counters

// Stats is a consistent-enough snapshot of a server's traffic counters.
type Stats struct {
	// Admitted counts requests past admission control; Ok, BadRequest,
	// TooLarge, Overloaded, TimedOut, and Failed partition terminal
	// outcomes (Overloaded and TooLarge are rejections, not admissions).
	Admitted, Ok, BadRequest, TooLarge, Overloaded, TimedOut, Failed uint64
	// Batches counts coalescer flushes; Coalesced counts requests that
	// reached the coalescer; SharedResponses counts requests
	// served from a duplicate's response bytes; SimSeeds and SimBatches
	// count merged simulation lanes and RunMany calls.
	Batches, Coalesced, SharedResponses, SimSeeds, SimBatches uint64
	// Queued is the current number of requests parked in coalescing
	// groups; Inflight the number admitted but not yet answered.
	Queued, Inflight int64
	// BatchSize is the per-flush request count distribution (counts, not
	// durations); CoalesceWait the enqueue-to-flush wait; Latency the
	// admission-to-response wall time.
	BatchSize, CoalesceWait, Latency metrics.Histogram
}

func (c *counters) snapshot() Stats {
	return Stats{
		Admitted:        c.admitted.Load(),
		Ok:              c.ok.Load(),
		BadRequest:      c.badReq.Load(),
		TooLarge:        c.tooLarge.Load(),
		Overloaded:      c.overload.Load(),
		TimedOut:        c.timeout.Load(),
		Failed:          c.failed.Load(),
		Batches:         c.batches.Load(),
		Coalesced:       c.coalesced.Load(),
		SharedResponses: c.shared.Load(),
		SimSeeds:        c.simSeeds.Load(),
		SimBatches:      c.simRuns.Load(),
		Queued:          c.queued.Load(),
		Inflight:        c.inflight.Load(),
		BatchSize:       c.batchSize.Snapshot(),
		CoalesceWait:    c.coalesceWait.Snapshot(),
		Latency:         c.latency.Snapshot(),
	}
}

// GlobalStats snapshots the process-wide counters aggregated across
// every Server, the series the Prometheus registry exports.
func GlobalStats() Stats { return global.snapshot() }

// atomic64 shortens the bump accessor signatures.
type atomic64 = atomic.Uint64

// bump adds one to a per-server counter and its global mirror, selected
// by the same accessor so the two cannot drift.
func (s *Server) bump(f func(*counters) *atomic64) {
	f(&s.c).Add(1)
	f(&global).Add(1)
}

func (s *Server) observeBatch(size int, waits []time.Duration) {
	s.c.batches.Add(1)
	global.batches.Add(1)
	s.c.batchSize.Observe(time.Duration(size))
	global.batchSize.Observe(time.Duration(size))
	for _, w := range waits {
		s.c.coalesceWait.Observe(w)
		global.coalesceWait.Observe(w)
	}
}

func (s *Server) observeLatency(d time.Duration) {
	s.c.latency.Observe(d)
	global.latency.Observe(d)
}

func (s *Server) addQueued(n int64) {
	s.c.queued.Add(n)
	global.queued.Add(n)
}

func (s *Server) addInflight(n int64) int64 {
	global.inflight.Add(n)
	return s.c.inflight.Add(n)
}
