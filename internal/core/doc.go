// Package core implements the paper's primary contribution: list
// scheduling of basic blocks onto a barrier MIMD (section 4), including
// node labeling and ordering (4.1–4.2), node assignment (4.3), conservative
// and "optimal" barrier insertion (4.4.1–4.4.2), and SBM barrier merging
// (4.4.3). ScheduleDAG schedules one instruction dag; ScheduleBatch fans a
// slice of independent dags across a bounded worker pool with
// deterministic per-item seeds, so batch results are identical for every
// Options.Parallelism value and with or without Options.Cache, and every
// item reports its own error.
//
// # Soundness refinement
//
// The paper's insertion rules reason about producer/consumer timing through
// the barrier dag. Inserting a barrier (or merging two) can retroactively
// *delay* the worst-case finish time of instructions scheduled after it,
// which may invalidate a producer/consumer pair that was previously proven
// safe by the timing check. The paper does not discuss this interaction, so
// this implementation re-verifies every timing-resolved pair after each
// barrier insertion or merge and repairs any broken pair by inserting a
// barrier for it (Metrics.RepairedPairs counts these). The discrete-event
// simulator in internal/machine validates the resulting schedules end to
// end under randomized instruction timings.
//
// # Finished schedules
//
// A Schedule keeps no barrier graph. Schedule.Barriers is a frozen
// BarrierView indexed by barrier id (fire windows, successors, and the
// [min,max] region time of each edge), and Schedule.Participants an
// id-indexed table whose merged-away ids are nil. The scheduler's working
// graphs stay in its pooled arena. Nothing in the package writes to a
// returned Schedule, and it shares no storage with later runs, so
// goroutines may read one at once.
//
// # Observability
//
// Options.Recorder attaches an internal/obsv trace recorder: every
// committed scheduling decision — barrier insertions, merges, rejections,
// rollbacks, pair repairs, dag patches and rebuilds — is emitted as a
// deterministic structured event (speculative probes record nothing).
// ScheduleBatch gives each item a private ring and replays them in item
// order, so the merged stream is byte-identical for every Parallelism
// value. Recording never changes results, and a nil Recorder costs one
// nil check per site. StageStats aggregates per-stage wall-time
// histograms across all ScheduleDAG calls for the exposition endpoint.
// The event schema is documented in OBSERVABILITY.md.
package core
