package core

import (
	"barriermimd/internal/dag"
	"barriermimd/internal/metrics"
	"barriermimd/internal/obsv"
	"barriermimd/internal/pool"
)

// batchTraceCap bounds the per-item trace ring a traced batch gives each
// worker; only the newest events of a pathologically chatty item are
// kept (the drop is counted, never silent).
const batchTraceCap = 1 << 14

// ScheduleBatch schedules every DAG in gs, fanning independent runs
// across up to opts.Parallelism worker goroutines (0 = GOMAXPROCS).
//
// Each item i is scheduled with opts.Seed + i as its tie-break seed, so a
// batch of identical DAGs still explores seed-diverse schedules and —
// more importantly — the result for every index is a pure function of
// (gs[i], opts, i): batches are byte-identical across Parallelism values,
// across runs, and with or without opts.Cache (each item goes through
// ScheduleDAG, which consults the cache under the same seed). Results
// are written index-addressed; out[i] is the schedule of gs[i].
//
// Every item is attempted, whatever the others do: errs[i] is item i's
// error, and out[i] is nil exactly when errs[i] is not. The last result
// reports invalid opts only, in which case nothing is scheduled.
//
// When opts.Recorder is non-nil, every item records into a private ring
// and the rings — failed items' included — are replayed into
// opts.Recorder in item order after all workers finish, so the merged
// trace stream is as deterministic as the schedules themselves.
func ScheduleBatch(gs []*dag.Graph, opts Options) (out []*Schedule, errs []error, err error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	var rings []*obsv.Ring
	if opts.Recorder != nil {
		rings = make([]*obsv.Ring, len(gs))
		for i := range rings {
			rings[i] = obsv.NewRing(batchTraceCap)
		}
	}
	out = make([]*Schedule, len(gs))
	errs = make([]error, len(gs))
	pool.ForEach(opts.Parallelism, len(gs), func(i int) error {
		o := opts
		o.Seed = opts.Seed + int64(i)
		if rings != nil {
			o.Recorder = rings[i]
		}
		out[i], errs[i] = ScheduleDAG(gs[i], o)
		return nil
	})
	for _, r := range rings {
		r.ReplayInto(opts.Recorder)
	}
	return out, errs, nil
}

// BatchMetrics aggregates the per-run counters of a scheduled batch:
// summed synchronization accounting and cache counters. Stage clocks are
// merged across runs (wall times add even when runs overlapped on
// different workers, so the merged clock measures total CPU-side work,
// not elapsed time).
func BatchMetrics(scheds []*Schedule) Metrics {
	var total Metrics
	for _, s := range scheds {
		if s == nil {
			continue
		}
		m := s.Metrics
		total.TotalImpliedSyncs += m.TotalImpliedSyncs
		total.Barriers += m.Barriers
		total.SerializedSyncs += m.SerializedSyncs
		total.StaticAfterBarrier += m.StaticAfterBarrier
		total.PathResolved += m.PathResolved
		total.TimingResolved += m.TimingResolved
		total.OptimalRescues += m.OptimalRescues
		total.MergedBarriers += m.MergedBarriers
		total.RepairedPairs += m.RepairedPairs
		total.PathCache.Add(m.PathCache)
		if m.Stages != nil {
			if total.Stages == nil {
				total.Stages = new(metrics.StageClock)
			}
			total.Stages.Merge(m.Stages)
		}
	}
	return total
}
