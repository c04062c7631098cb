// Package machine simulates barrier MIMD hardware executing a compiled
// schedule (section 3.2 of the paper). Two machines are modeled:
//
//   - SBM: barriers are bit masks enqueued in a compile-time total order
//     (Figure 11); the queue's top barrier fires when every participating
//     processor has executed its wait instruction, and all participants
//     resume simultaneously.
//   - DBM: an associative matching memory fires any barrier whose
//     participants are all waiting, in whatever run-time order occurs.
//
// Barriers execute with zero cost upon arrival of the last participant,
// matching the assumption of the paper's experiments (section 5).
//
// The simulator is also the project's end-to-end correctness oracle: with
// randomized instruction durations, Result.CheckDependences verifies that
// every producer finished before its consumer started — i.e. that the
// compiler's static synchronization decisions were sound.
//
// # One kernel, one oracle
//
// Compile lowers a schedule once into an immutable Plan — flat
// per-processor instruction streams, CSR barrier-participation and
// barrier-dag lists, a dense barrier-id remapping, and (for the SBM) the
// precomputed firing queue. One structure-of-arrays kernel executes it:
// Plan.RunMany simulates a slice of seeds in lockstep, and Plan.Run is the
// same kernel with a single lane. Per-run state is recycled through the
// plan's sync.Pools. A Plan depends only on (schedule, machine kind),
// never on a run's Config, so one Plan serves any number of concurrent
// goroutines sweeping seeds, policies, and barrier costs; a warm
// run-and-release cycle performs no allocations. The package tests keep a
// reference per-run simulator that re-derives everything from the
// schedule on every call, and require the kernel to match it byte for
// byte. Stats reports the process-wide plan/run/pool counters.
//
// # Observability
//
// Config.Recorder attaches an internal/obsv trace recorder; every run
// emits the same deterministic stream — run-start, one barrier-fire per
// firing at its simulated time, run-end — whether it ran alone through
// Plan.Run or as a lane of Plan.RunMany. A nil Recorder costs one nil
// check, preserving the zero-allocation warm path; a pre-sized ring keeps
// even traced runs allocation-free.
// EnableRunTiming gates wall-clock run-latency histograms (RunLatency,
// per machine kind) separately, since timing is the one measurement that
// cannot be free. The schema is documented in OBSERVABILITY.md.
package machine
