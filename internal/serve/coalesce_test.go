package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"barriermimd/internal/core"
	"barriermimd/internal/obsv"
)

// TestObserveFlushDecaysToOne: after one two-request flush, lone flushes
// bring the batch-size estimate all the way back to one request, and a
// steady batch size is reached exactly from below too. A truncating step
// stalls the estimate at 19/16 after the pair.
func TestObserveFlushDecaysToOne(t *testing.T) {
	c := newCoalescer(nil)
	c.observeFlush(2)
	if got := c.ewma.Load(); got != 20 {
		t.Fatalf("estimate after a two-request flush = %d, want 20", got)
	}
	for i := 0; i < 8; i++ {
		c.observeFlush(1)
	}
	if got := c.ewma.Load(); got != 1*ewmaScale {
		t.Fatalf("estimate after lone flushes = %d, want %d", got, 1*ewmaScale)
	}
	for i := 0; i < 40; i++ {
		c.observeFlush(5)
	}
	if got := c.ewma.Load(); got != 5*ewmaScale {
		t.Fatalf("estimate after steady 5-request flushes = %d, want %d", got, 5*ewmaScale)
	}
}

// TestLoneRequestFlushesAfterPairedFlush: a two-request flush raises the
// batch-size estimate, so the next lone requests wait out the window while
// it decays. After those few flushes a lone request must again flush at
// once (the adaptive trigger) and be answered well inside the window,
// instead of waiting for the window forever.
func TestLoneRequestFlushesAfterPairedFlush(t *testing.T) {
	const window = 50 * time.Millisecond
	ring := obsv.NewRing(1 << 10)
	s := New(Config{Window: window, Recorder: ring})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const src = "c = a + b\n"
	key := groupKey{procs: 4, machine: core.SBM, insertion: core.Conservative}
	pair := make([]*request, 2)
	for i := range pair {
		pair[i] = &request{endpoint: epSchedule, src: src, key: key,
			ctx: context.Background(), enq: time.Now(), done: make(chan response, 1)}
	}
	s.execBatch(pair, triggerWindow)

	// post sends one lone request and returns its latency and the trigger
	// of the batch that served it (execBatch records the batch event
	// before it answers).
	post := func() (time.Duration, int64) {
		start := time.Now()
		resp, err := http.Post(ts.URL+"/v1/schedule", "application/json",
			strings.NewReader(`{"src":"c = a + b\n","procs":4}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		d := time.Since(start)
		trigger := int64(-1)
		for _, ev := range ring.Events() {
			if ev.Kind == obsv.KindServeBatch {
				trigger = ev.Arg2
			}
		}
		return d, trigger
	}
	// 20/16 decays to 16/16 in four lone flushes.
	for i := 0; i < 4; i++ {
		post()
	}
	for i := 0; i < 3; i++ {
		if d, trigger := post(); trigger != triggerAdaptive || d >= window {
			t.Fatalf("lone request %d: trigger %d after %v, want the adaptive trigger (%d) well inside the %v window",
				i, trigger, d, triggerAdaptive, window)
		}
	}
}
