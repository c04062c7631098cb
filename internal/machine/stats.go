package machine

import (
	"sync/atomic"

	"barriermimd/internal/metrics"
)

// simStats holds the package-wide simulation counters behind Stats. The
// counters are atomic so concurrent plan runs (the intended use) can bump
// them without coordination.
var simStats struct {
	plans    atomic.Uint64
	runs     atomic.Uint64
	hits     atomic.Uint64
	misses   atomic.Uint64
	batches  atomic.Uint64
	lanes    atomic.Uint64
	seqLanes atomic.Uint64
}

// Stats snapshots the process-wide simulation counters: plans compiled,
// runs executed (one per Plan.Run, one per RunMany lane), RunMany batches
// and lanes, lanes whose random durations replayed the sequential
// generator, and how often a run's scratch state was recycled from a pool
// rather than freshly allocated.
func Stats() metrics.SimStats {
	return metrics.SimStats{
		PlansCompiled:   simStats.plans.Load(),
		Runs:            simStats.runs.Load(),
		ScratchHits:     simStats.hits.Load(),
		ScratchMisses:   simStats.misses.Load(),
		Batches:         simStats.batches.Load(),
		Lanes:           simStats.lanes.Load(),
		SequentialLanes: simStats.seqLanes.Load(),
	}
}

// ResetStats zeroes the simulation counters (so a tool can report one
// sweep's amortization in isolation).
func ResetStats() {
	simStats.plans.Store(0)
	simStats.runs.Store(0)
	simStats.hits.Store(0)
	simStats.misses.Store(0)
	simStats.batches.Store(0)
	simStats.lanes.Store(0)
	simStats.seqLanes.Store(0)
}

// Run-latency measurement is opt-in: a µs-scale Plan.Run would pay a
// measurable fraction of its budget on two time.Now calls, so the clock
// reads are gated on an atomic flag the observability endpoint flips on.
// The histograms themselves are always safe to snapshot.
var (
	runTiming  atomic.Bool
	runLatency [2]metrics.AtomicHistogram // indexed by core.MachineKind
)

// EnableRunTiming turns wall-clock measurement of Plan.Run on or off
// process-wide. Off (the default) costs the hot path one atomic load.
func EnableRunTiming(on bool) { runTiming.Store(on) }

// RunTimingEnabled reports whether Plan.Run latency is being measured.
func RunTimingEnabled() bool { return runTiming.Load() }

// RunLatency snapshots the per-run wall-time histogram of Plan.Run for
// one machine kind (0 = SBM, 1 = DBM), populated only while
// EnableRunTiming(true) is in effect.
func RunLatency(kind int) metrics.Histogram {
	if kind < 0 || kind >= len(runLatency) {
		return metrics.Histogram{}
	}
	return runLatency[kind].Snapshot()
}

// ResetRunLatency zeroes the run-latency histograms (tests).
func ResetRunLatency() {
	for i := range runLatency {
		runLatency[i].Reset()
	}
}
