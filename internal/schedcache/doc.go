// Package schedcache memoizes complete scheduling runs behind a
// content-addressed key: a 128-bit DAG fingerprint that hashes, in index
// order, exactly what dag.Equal compares (node count, per-node op and
// min/max time, edge list), combined with every decision-relevant
// scheduling option (machine kind, processor count, insertion algorithm,
// ordering, assignment, lookahead, seed, path limit).
//
// The cache is a sharded, bounded LRU holding immutable *core.Schedule
// values with lazily attached *machine.Plan compilations, fronted by
// per-key singleflight so a novel key is computed exactly once under
// concurrency. Every fingerprint match is verified with dag.Equal before
// being served (a failed check is a hash collision, counted Rejected and
// scheduled fresh), which makes cache hits byte-identical to fresh runs by
// construction. A cache therefore changes only the work performed, never
// the output: ScheduleBatch and cfg.Program.Compile derive the same
// per-item seeds with or without one.
//
// bmserve schedules every unique request source through one Cache.
// Library callers can attach one via core.Options.Cache, which
// core.ScheduleDAG consults (and so core.ScheduleBatch and
// cfg.Program.Compile, item by item). Traffic counters surface through
// Cache.Stats, the process-wide GlobalStats (exported as
// barriermimd_schedcache_*_total by the Prometheus registry), and obsv
// trace events (sched-cache-{hit,miss,wait,evict}).
package schedcache
