// Package serve is the network front-end of the scheduling stack: an
// HTTP/JSON daemon that turns concurrent independent schedule and
// simulate requests into batched work over the same engine the CLI
// tools use.
//
// The hot path is an adaptive micro-batching coalescer. An admitted
// request joins a group keyed by its decision-relevant options (procs,
// machine, insertion, seed); the group flushes as one batch when the
// first of three triggers fires:
//
//   - the bounded coalescing window expires (Config.Window),
//   - the group reaches Config.MaxBatch requests, or
//   - an executing flush completes (adaptive drain: whatever parked
//     during the execution flushes immediately, so under load the batch
//     size tracks the arrival rate per batch execution and the window
//     never idles the CPU; the window only bounds the wait at low
//     rates).
//
// A flush dedupes byte-identical request sources, then looks each unique
// source up once in the shared schedule cache, keyed by (program text,
// options): a program an earlier batch already scheduled is served from
// its resident entry without being compiled again, and a miss compiles
// and schedules it once under the cache's singleflight. Every unit keeps
// its own error. The flush merges the simulation sweeps of every request
// that shares a plan and timing policy into one lane-parallel
// Plan.RunMany call, and fans the per-request responses back out —
// duplicate requests share one response byte slice. (Library callers
// that set core.Options.Cache key the same cache type by DAG content
// instead.)
//
// Responses are byte-identical to the CLI tools for the same inputs:
// /v1/schedule returns exactly what `bmsched -json` prints, and
// /v1/simulate's finish times equal the per-run finish times `bmsim`
// prints for the same seeds, because every coalescing layer preserves
// the engine's determinism guarantees (equal text compiles to an equal
// DAG, so a cached schedule is byte-identical to a fresh run; RunMany
// lane i is field-identical to Plan.Run(seeds[i])).
//
// The server applies admission control (bounded in-flight requests with
// 429 on overload, bounded body reads with 400/413, per-request
// deadlines), drains gracefully on shutdown, and reports queue depth,
// batch-size and coalesce-wait histograms, request latency, and
// coalescing counters through internal/metrics (exposed by
// internal/cli's Prometheus registry) plus internal/obsv trace events:
// the serve kinds and the cache's own sched-cache kinds.
// Command bmserve wires it to a listener.
package serve
