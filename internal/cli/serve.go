package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"barriermimd/internal/obsv"
	"barriermimd/internal/serve"
)

// Serve implements the bmserve command: a scheduling-and-simulation
// HTTP daemon whose hot path coalesces concurrent requests into batch
// engine calls.
func Serve(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bmserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8080", "listen address; serves the /v1 API plus /metrics, /debug/vars, /debug/pprof")
	window := fs.Duration("window", serve.DefaultWindow, "coalescing window: the oldest queued request flushes at most this long after arriving (> 0; -maxbatch 1 serves every request as its own batch)")
	maxBatch := fs.Int("maxbatch", serve.DefaultMaxBatch, "flush a coalescing group early at this many requests")
	maxInflight := fs.Int("maxinflight", serve.DefaultMaxInflight, "admission bound: reject requests with 429 beyond this many in flight")
	timeout := fs.Duration("timeout", serve.DefaultTimeout, "default per-request deadline (overridable per request with deadline_ms)")
	maxBody := fs.Int64("maxbody", serve.DefaultMaxBody, "reject request bodies larger than this many bytes with 413")
	cacheSize := fs.Int("cachesize", 0, "schedule-cache entry bound (0 = default)")
	workers := fs.Int("j", 0, "parse/schedule fan-out per coalesced flush (0 = GOMAXPROCS)")
	trace := fs.String("trace", "", "write the structured trace to this file on shutdown (.jsonl = JSON Lines, otherwise Chrome trace_event JSON)")
	traceCap := fs.Int("tracecap", obsv.DefaultRingCapacity, "trace ring capacity in events")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := nonNegative(
		intFlag{"j", *workers}, intFlag{"maxbatch", *maxBatch},
		intFlag{"maxinflight", *maxInflight}, intFlag{"cachesize", *cacheSize},
	); err != nil {
		return fail(stderr, "bmserve", err)
	}
	if *window <= 0 {
		return fail(stderr, "bmserve", fmt.Errorf(
			"-window = %v, need > 0 (for batch-size-1 serving use -maxbatch 1)", *window))
	}

	cfg := serve.Config{
		Window:      *window,
		MaxBatch:    *maxBatch,
		MaxInflight: *maxInflight,
		MaxBody:     *maxBody,
		Timeout:     *timeout,
		CacheSize:   *cacheSize,
		Workers:     *workers,
	}
	return runServe(cfg, *addr, *trace, *traceCap, stdout, stderr)
}

// runServe binds the daemon, serves until SIGTERM/SIGINT, then drains:
// net/http's graceful Shutdown waits for in-flight handlers, and every
// coalesced request is parked inside one, so the queue empties before
// the listener closes.
func runServe(cfg serve.Config, addr, trace string, traceCap int, stdout, stderr io.Writer) int {
	var ring *obsv.Ring
	if trace != "" {
		ring = obsv.NewRing(traceCap)
		cfg.Recorder = ring
	}
	api := serve.New(cfg)

	srv, err := StartObsvServer(addr, stderr, api.Mount)
	if err != nil {
		return fail(stderr, "bmserve", err)
	}
	fmt.Fprint(stderr, serveBanner(srv.Addr(), api.Config()))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	signal.Stop(sig)
	fmt.Fprintf(stderr, "bmserve: %v, draining\n", got)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fail(stderr, "bmserve", fmt.Errorf("drain: %w", err))
	}
	st := api.Stats()
	fmt.Fprintf(stderr, "bmserve: drained; %d requests (%d ok, %d shared), %d batches\n",
		st.Admitted, st.Ok, st.SharedResponses, st.Batches)
	if ring != nil {
		if err := writeTraceFile(trace, ring); err != nil {
			return fail(stderr, "bmserve", err)
		}
		fmt.Fprintf(stderr, "bmserve: %d trace events written to %s (%d dropped)\n",
			ring.Len(), trace, ring.Dropped())
	}
	return 0
}

// serveBanner is the line bmserve prints once it listens. It takes the
// server's own Config, so a flag left at 0 shows the default it selects.
func serveBanner(addr string, cfg serve.Config) string {
	return fmt.Sprintf("bmserve: serving http://%s/v1/{schedule,simulate,stats} (coalescing %v, maxbatch %d)\n",
		addr, cfg.Window, cfg.MaxBatch)
}
