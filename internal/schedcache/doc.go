// Package schedcache memoizes complete scheduling runs. A key combines
// what is scheduled with every decision-relevant scheduling option
// (machine kind, processor count, insertion algorithm, ordering,
// assignment, lookahead, seed, path limit), and comes in two kinds:
//
//   - A source key holds the program text. bmserve looks every unique
//     request source up this way (Cache.Source): a hit returns the
//     resident schedule and its shared plan without compiling the text,
//     and a miss compiles and schedules it once. Map equality compares
//     the text byte for byte, and equal text compiles to an equal DAG,
//     so a hit is byte-identical to a fresh run with no further check.
//     The key's TextFingerprint only picks the shard and labels trace
//     events.
//   - A DAG key holds a 128-bit fingerprint that hashes, in index order,
//     exactly what dag.Equal compares (node count, per-node op and
//     min/max time, edge list). Library callers attach a cache via
//     core.Options.Cache, which core.ScheduleDAG consults (and so
//     core.ScheduleBatch and cfg.Program.Compile, item by item). Every
//     fingerprint match is verified with dag.Equal before being served
//     (a failed check is a hash collision, counted Rejected and scheduled
//     fresh).
//
// Both kinds share one sharded, bounded LRU of immutable *core.Schedule
// values, each with a machine plan compiled on first use and shared,
// fronted by per-key singleflight so a novel key is computed exactly
// once under concurrency. A cache therefore changes only the work
// performed, never the output: ScheduleBatch and cfg.Program.Compile
// derive the same per-item seeds with or without one. Traffic counters
// surface through Cache.Stats, the process-wide GlobalStats (exported as
// barriermimd_schedcache_*_total by the Prometheus registry), and obsv
// trace events (sched-cache-{hit,miss,wait,evict}).
package schedcache
