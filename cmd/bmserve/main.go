// Command bmserve is the scheduling-and-simulation daemon: an HTTP/JSON
// service over the scheduling engine whose hot path coalesces concurrent
// requests — grouped by scheduling options inside a bounded time window —
// into batches that dedupe identical programs, schedule each unique one
// through the shared schedule cache, and fan merged simulation sweeps
// through the lane-parallel RunMany kernel. Responses are byte-identical
// to bmsched -json and bmsim for the same inputs and seeds.
//
// Usage:
//
//	bmserve [-addr localhost:8080] [-window 2ms] [-maxbatch 64]
//	        [-maxinflight 1024] [-timeout 10s] [-maxbody N]
//	        [-cachesize N] [-j N] [-trace out.json] [-tracecap N]
//
// -window must be positive; -maxbatch 1 serves every request as its own
// batch. The daemon drains gracefully on SIGTERM/SIGINT: admission
// stops, parked requests finish their batches, then the listener closes.
// /metrics, /debug/vars and /debug/pprof are served on the same
// listener; see OBSERVABILITY.md. Load tests and throughput numbers come
// from the repository benchmark's open-loop serve-dup and serve-unique
// workloads (bench/README.md).
package main

import (
	"os"

	"barriermimd/internal/cli"
)

func main() {
	os.Exit(cli.Serve(os.Args[1:], os.Stdout, os.Stderr))
}
