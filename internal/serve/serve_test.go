package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"barriermimd/internal/cli"
	"barriermimd/internal/obsv"
	"barriermimd/internal/serve"
	"barriermimd/internal/synth"
)

// testPrograms generates n deterministic synthetic programs and writes
// each to a file (for the CLI oracle), returning sources and paths.
func testPrograms(t *testing.T, n, stmts int) (srcs []string, paths []string) {
	t.Helper()
	dir := t.TempDir()
	for i := 0; i < n; i++ {
		prog, err := synth.Generate(synth.Config{Statements: stmts, Variables: 6}, int64(100+i))
		if err != nil {
			t.Fatalf("synth: %v", err)
		}
		src := prog.String()
		path := filepath.Join(dir, fmt.Sprintf("p%d.bb", i))
		if err := os.WriteFile(path, []byte(src), 0o600); err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
		paths = append(paths, path)
	}
	return srcs, paths
}

// schedOracle runs `bmsched -json` on path and returns its stdout bytes.
func schedOracle(t *testing.T, path string, procs int, seed int64) []byte {
	t.Helper()
	var out, errb bytes.Buffer
	args := []string{"-json", "-procs", strconv.Itoa(procs), "-seed", strconv.FormatInt(seed, 10), path}
	if rc := cli.Sched(args, strings.NewReader(""), &out, &errb); rc != 0 {
		t.Fatalf("bmsched rc=%d: %s", rc, errb.String())
	}
	return out.Bytes()
}

// simOracle runs bmsim on path and parses the per-run finish column.
func simOracle(t *testing.T, path string, procs, runs int, seed int64) []int {
	t.Helper()
	var out, errb bytes.Buffer
	args := []string{
		"-procs", strconv.Itoa(procs), "-seed", strconv.FormatInt(seed, 10),
		"-runs", strconv.Itoa(runs), path,
	}
	if rc := cli.Sim(args, strings.NewReader(""), &out, &errb); rc != 0 {
		t.Fatalf("bmsim rc=%d: %s", rc, errb.String())
	}
	var finishes []int
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 || f[2] != "ok" {
			continue
		}
		if _, err := strconv.Atoi(f[0]); err != nil {
			continue
		}
		fin, err := strconv.Atoi(f[1])
		if err != nil {
			t.Fatalf("bmsim table: %q", line)
		}
		finishes = append(finishes, fin)
	}
	if len(finishes) != runs {
		t.Fatalf("parsed %d finishes from bmsim, want %d:\n%s", len(finishes), runs, out.String())
	}
	return finishes
}

// postJSON POSTs req and returns the status and body. Client goroutines
// call it, so it reports transport errors with t.Errorf (t.Fatalf must
// run on the test goroutine) and returns status 0.
func postJSON(t *testing.T, url string, req serve.Request) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Errorf("marshal: %v", err)
		return 0, nil
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Errorf("POST %s: %v", url, err)
		return 0, nil
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Errorf("POST %s: reading body: %v", url, err)
		return 0, nil
	}
	return resp.StatusCode, body.Bytes()
}

// identityMatrix is the server configuration x client concurrency grid
// the oracle tests sweep: MaxBatch 1 serves every request as its own
// batch, the 5-ms window exercises real coalesced batches.
var identityMatrix = []struct {
	name string
	cfg  serve.Config
	conc int
}{
	{"maxbatch1/c1", serve.Config{MaxBatch: 1}, 1},
	{"maxbatch1/c8", serve.Config{MaxBatch: 1}, 8},
	{"maxbatch1/c32", serve.Config{MaxBatch: 1}, 32},
	{"window5ms/c1", serve.Config{Window: 5 * time.Millisecond}, 1},
	{"window5ms/c8", serve.Config{Window: 5 * time.Millisecond}, 8},
	{"window5ms/c32", serve.Config{Window: 5 * time.Millisecond}, 32},
}

// tracedServer starts a server for one identity-matrix row with a trace
// ring attached, so the row can check its flush sizes afterwards.
func tracedServer(t *testing.T, cfg serve.Config) (*httptest.Server, *obsv.Ring) {
	t.Helper()
	ring := obsv.NewRing(1 << 12)
	cfg.Recorder = ring
	ts := httptest.NewServer(serve.New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts, ring
}

// requireBatchBound checks that no flush recorded in ring held more than
// maxBatch requests (serve-batch Arg0), and that the ring dropped nothing.
func requireBatchBound(t *testing.T, ring *obsv.Ring, maxBatch int) {
	t.Helper()
	if maxBatch == 0 {
		maxBatch = serve.DefaultMaxBatch
	}
	if d := ring.Dropped(); d != 0 {
		t.Fatalf("trace ring dropped %d events", d)
	}
	batches := 0
	for _, ev := range ring.Events() {
		if ev.Kind != obsv.KindServeBatch {
			continue
		}
		batches++
		if ev.Arg0 < 1 || ev.Arg0 > int64(maxBatch) {
			t.Errorf("flush of %d requests, want 1..%d", ev.Arg0, maxBatch)
		}
	}
	if batches == 0 {
		t.Error("no serve-batch events recorded")
	}
}

// TestScheduleIdentity pins the tentpole guarantee: /v1/schedule bodies
// are byte-identical to `bmsched -json` for the same program and
// options, no matter how requests are coalesced.
func TestScheduleIdentity(t *testing.T) {
	const procs, seed = 6, 3
	srcs, paths := testPrograms(t, 4, 30)
	want := make([][]byte, len(srcs))
	for i, p := range paths {
		want[i] = schedOracle(t, p, procs, seed)
	}

	for _, tc := range identityMatrix {
		t.Run(tc.name, func(t *testing.T) {
			ts, ring := tracedServer(t, tc.cfg)

			const perWorker = 4
			errs := make(chan error, tc.conc*perWorker)
			var wg sync.WaitGroup
			for w := 0; w < tc.conc; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for r := 0; r < perWorker; r++ {
						i := (w + r) % len(srcs)
						status, body := postJSON(t, ts.URL+"/v1/schedule",
							serve.Request{Src: srcs[i], Procs: procs, Seed: seed})
						if status != http.StatusOK {
							errs <- fmt.Errorf("status %d: %s", status, body)
							return
						}
						if !bytes.Equal(body, want[i]) {
							errs <- fmt.Errorf("program %d: served schedule differs from bmsched -json", i)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			requireBatchBound(t, ring, tc.cfg.MaxBatch)
		})
	}
}

// TestSimulateIdentity pins /v1/simulate's finish_times to bmsim's
// per-run finish column for the same seeds, across the same coalescing
// matrix, with two different base seeds in flight at once so distinct
// groups cannot contaminate each other.
func TestSimulateIdentity(t *testing.T) {
	const procs, runs = 6, 5
	seeds := []int64{5, 11}
	srcs, paths := testPrograms(t, 3, 30)
	want := make(map[string][]int) // "program/seed" -> finishes
	for i, p := range paths {
		for _, sd := range seeds {
			want[fmt.Sprintf("%d/%d", i, sd)] = simOracle(t, p, procs, runs, sd)
		}
	}

	for _, tc := range identityMatrix {
		t.Run(tc.name, func(t *testing.T) {
			ts, ring := tracedServer(t, tc.cfg)

			const perWorker = 4
			errs := make(chan error, tc.conc*perWorker)
			var wg sync.WaitGroup
			for w := 0; w < tc.conc; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for r := 0; r < perWorker; r++ {
						i := (w + r) % len(srcs)
						sd := seeds[(w+r)%len(seeds)]
						status, body := postJSON(t, ts.URL+"/v1/simulate",
							serve.Request{Src: srcs[i], Procs: procs, Seed: sd, Runs: runs})
						if status != http.StatusOK {
							errs <- fmt.Errorf("status %d: %s", status, body)
							return
						}
						var res serve.SimResult
						if err := json.Unmarshal(body, &res); err != nil {
							errs <- err
							return
						}
						w := want[fmt.Sprintf("%d/%d", i, sd)]
						if len(res.FinishTimes) != len(w) {
							errs <- fmt.Errorf("program %d seed %d: %d finishes, want %d", i, sd, len(res.FinishTimes), len(w))
							return
						}
						for r, fin := range res.FinishTimes {
							if fin != w[r] {
								errs <- fmt.Errorf("program %d seed %d run %d: finish %d, bmsim says %d", i, sd, r, fin, w[r])
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			requireBatchBound(t, ring, tc.cfg.MaxBatch)
		})
	}
}

// TestRejections covers the admission-control surface: wrong method,
// malformed and invalid bodies, and the body-size bound.
func TestRejections(t *testing.T) {
	s := serve.New(serve.Config{MaxBatch: 1, MaxBody: 256})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		if jerr := json.NewDecoder(resp.Body).Decode(&e); jerr != nil || e.Error == "" {
			t.Errorf("body %q: error responses must carry a JSON error field (%v)", body, jerr)
		}
		return resp.StatusCode
	}
	if got := post("{not json"); got != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", got)
	}
	if got := post(`{"src":"   "}`); got != http.StatusBadRequest {
		t.Errorf("empty src: status %d, want 400", got)
	}
	if got := post(`{"src":"v0 = v0 + 1;","machine":"vliw"}`); got != http.StatusBadRequest {
		t.Errorf("bad machine: status %d, want 400", got)
	}
	if got := post(`{"src":"this is not the benchmark language"}`); got != http.StatusBadRequest {
		t.Errorf("parse error: status %d, want 400", got)
	}
	if got := post(`{"src":"a = b + c","procs":4097}`); got != http.StatusBadRequest {
		t.Errorf("procs above core.MaxProcessors: status %d, want 400", got)
	}
	if got := post(`{"src":"` + strings.Repeat("v0 = v0 + 1; ", 200) + `"}`); got != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", got)
	}
}

// TestSimulateCountsOneLookupPerProgram: a simulate request looks its
// schedule up once. N distinct programs are N misses and no hits; the
// plan lookup that follows scheduling must not count again.
func TestSimulateCountsOneLookupPerProgram(t *testing.T) {
	srcs, _ := testPrograms(t, 4, 20)
	s := serve.New(serve.Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, src := range srcs {
		if status, body := postJSON(t, ts.URL+"/v1/simulate", serve.Request{Src: src, Runs: 3}); status != http.StatusOK {
			t.Fatalf("simulate: status %d (%s)", status, body)
		}
	}
	if st := s.Cache().Stats(); st.Misses != uint64(len(srcs)) || st.Hits != 0 {
		t.Errorf("cache stats = %v, want %d misses and 0 hits", st, len(srcs))
	}
}

// TestOverloadAndDeadline drives a deliberately slow request (a large
// uncached program) to hold the server's one admission slot, checks the
// concurrent request is shed with 429, and then checks a request whose
// deadline cannot be met returns 504.
func TestOverloadAndDeadline(t *testing.T) {
	// 800 statements take about 0.2 s to schedule, or 5 s under -race on
	// a 2-vCPU machine: slow enough to observe mid-flight, well inside
	// the server's one-minute Timeout.
	big, err := synth.Generate(synth.Config{Statements: 800, Variables: 12}, 42)
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Config{MaxBatch: 1, MaxInflight: 1, Timeout: time.Minute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		status, _ := postJSON(t, ts.URL+"/v1/schedule", serve.Request{Src: big.String()})
		done <- status
	}()
	// Give the slow request time to be admitted, then trip admission.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if s.Stats().Inflight > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	status, body := postJSON(t, ts.URL+"/v1/schedule", serve.Request{Src: "v0 = v0 + 1;"})
	if status != http.StatusTooManyRequests {
		t.Errorf("overload: status %d (%s), want 429", status, body)
	}
	if st := <-done; st != http.StatusOK {
		t.Errorf("slow request: status %d, want 200", st)
	}

	big2, err := synth.Generate(synth.Config{Statements: 800, Variables: 12}, 43)
	if err != nil {
		t.Fatal(err)
	}
	status, body = postJSON(t, ts.URL+"/v1/schedule", serve.Request{Src: big2.String(), DeadlineMS: 1})
	if status != http.StatusGatewayTimeout {
		t.Errorf("deadline: status %d (%s), want 504", status, body)
	}
	if st := s.Stats(); st.TimedOut == 0 || st.Overloaded == 0 {
		t.Errorf("stats: TimedOut=%d Overloaded=%d, want both > 0", st.TimedOut, st.Overloaded)
	}
}

// TestDeadlineCappedAtTimeout: deadline_ms can shorten the server's
// Timeout but not extend it, so a one-minute deadline_ms on a server with
// a 1-µs Timeout still times out.
func TestDeadlineCappedAtTimeout(t *testing.T) {
	s := serve.New(serve.Config{Timeout: time.Microsecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	status, body := postJSON(t, ts.URL+"/v1/schedule", serve.Request{Src: "v0 = v0 + 1;", DeadlineMS: 60000})
	if status != http.StatusGatewayTimeout {
		t.Errorf("status %d (%s), want 504", status, body)
	}
}

// TestGracefulDrain shuts the HTTP server down while coalesced requests
// are still in flight and checks every one of them completes: parked
// requests belong to blocked handlers, so net/http's Shutdown drains
// the coalescer before the listener closes.
func TestGracefulDrain(t *testing.T) {
	srcs, _ := testPrograms(t, 2, 300)
	api := serve.New(serve.Config{Window: 50 * time.Millisecond})
	srv, err := obsv.ServeHandler("127.0.0.1:0", api.Handler())
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + srv.Addr() + "/v1/simulate"

	const n = 8
	statuses := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _ := postJSON(t, url, serve.Request{Src: srcs[i%len(srcs)], Runs: 4})
			statuses <- status
		}(i)
	}
	// Shut down while the burst is still being served, but only once
	// every request is admitted: a connection still in the listener's
	// accept queue when Shutdown closes it is reset, not drained.
	deadline := time.Now().Add(2 * time.Second)
	for api.Stats().Admitted < n {
		if time.Now().After(deadline) {
			// Fail, but still shut down and wait for the clients below.
			t.Errorf("only %d of %d requests admitted within 2s", api.Stats().Admitted, n)
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	close(statuses)
	for st := range statuses {
		if st != http.StatusOK {
			t.Errorf("in-flight request finished with %d during drain, want 200", st)
		}
	}
}

// TestStatsAndHealth checks the sidecar endpoints and that coalescing
// counters actually advance when duplicate requests fly concurrently.
func TestStatsAndHealth(t *testing.T) {
	srcs, _ := testPrograms(t, 1, 30)
	s := serve.New(serve.Config{Window: 5 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if status, body := postJSON(t, ts.URL+"/v1/simulate", serve.Request{Src: srcs[0], Runs: 3}); status != http.StatusOK {
				t.Errorf("status %d: %s", status, body)
			}
		}()
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	resp.Body.Close()
	if st.Admitted != 16 || st.Ok != 16 {
		t.Errorf("Admitted=%d Ok=%d, want 16/16", st.Admitted, st.Ok)
	}
	if st.Batches == 0 || st.Coalesced != 16 {
		t.Errorf("Batches=%d Coalesced=%d, want >0 and 16", st.Batches, st.Coalesced)
	}
	if st.Inflight != 0 || st.Queued != 0 {
		t.Errorf("Inflight=%d Queued=%d after quiesce, want 0/0", st.Inflight, st.Queued)
	}
	if g := serve.GlobalStats(); g.Admitted < st.Admitted {
		t.Errorf("global Admitted=%d < server's %d", g.Admitted, st.Admitted)
	}
}

// TestTraceRecordsEveryConcurrentRequest: handler and flush goroutines
// record into one Recorder, which need not be goroutine-safe (a bare
// Ring is not), so the server must serialize them. Every request leaves
// exactly one serve-request event; without the serialization, -race
// reports a data race in Ring.Record.
func TestTraceRecordsEveryConcurrentRequest(t *testing.T) {
	srcs, _ := testPrograms(t, 4, 20)
	ring := obsv.NewRing(1 << 10)
	ts := httptest.NewServer(serve.New(serve.Config{MaxBatch: 1, Recorder: ring}).Handler())
	defer ts.Close()

	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := serve.Request{Src: srcs[i%len(srcs)], Procs: 4}
			if status, body := postJSON(t, ts.URL+"/v1/schedule", req); status != http.StatusOK {
				t.Errorf("status %d: %s", status, body)
			}
		}(i)
	}
	wg.Wait()
	requests := 0
	for _, ev := range ring.Events() {
		if ev.Kind == obsv.KindServeRequest {
			requests++
		}
	}
	if requests != n || ring.Dropped() != 0 {
		t.Errorf("%d serve-request events (%d dropped) for %d requests, want %d", requests, ring.Dropped(), n, n)
	}
}

// TestTraceRecordsCacheEvents: a traced server records the schedule
// cache's own events. The same program posted twice, one request per
// batch, leaves one sched-cache-miss and then one sched-cache-hit for the
// same text fingerprint.
func TestTraceRecordsCacheEvents(t *testing.T) {
	srcs, _ := testPrograms(t, 1, 20)
	ts, ring := tracedServer(t, serve.Config{MaxBatch: 1})
	for i := 0; i < 2; i++ {
		if status, body := postJSON(t, ts.URL+"/v1/schedule", serve.Request{Src: srcs[0], Procs: 4}); status != http.StatusOK {
			t.Fatalf("post %d: status %d (%s)", i, status, body)
		}
	}
	var cache []obsv.Event
	for _, ev := range ring.Events() {
		switch ev.Kind {
		case obsv.KindSchedCacheHit, obsv.KindSchedCacheMiss, obsv.KindSchedCacheWait, obsv.KindSchedCacheEvict:
			cache = append(cache, ev)
		}
	}
	if len(cache) != 2 || cache[0].Kind != obsv.KindSchedCacheMiss || cache[1].Kind != obsv.KindSchedCacheHit {
		t.Fatalf("cache events = %v, want one sched-cache-miss then one sched-cache-hit", cache)
	}
	if miss, hit := cache[0], cache[1]; hit.Arg0 != miss.Arg0 || hit.Arg1 != miss.Arg1 || hit.Arg2 != 0 {
		t.Fatalf("hit %v does not carry the miss's fingerprint %v", hit, miss)
	}
}

// TestConcurrentPostsScheduleOnce: 16 concurrent posts of one new
// program, one request per batch, look the cache up 16 times and
// schedule the program once; the other 15 lookups hit or wait.
func TestConcurrentPostsScheduleOnce(t *testing.T) {
	srcs, paths := testPrograms(t, 1, 60)
	want := schedOracle(t, paths[0], 8, 0)
	s := serve.New(serve.Config{MaxBatch: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			status, body := postJSON(t, ts.URL+"/v1/schedule", serve.Request{Src: srcs[0]})
			if status != http.StatusOK || !bytes.Equal(body, want) {
				t.Errorf("status %d: body differs from bmsched -json (%.80s)", status, body)
			}
		}()
	}
	close(start)
	wg.Wait()
	st := s.Cache().Stats()
	if st.Misses != 1 || st.Hits+st.Waits != n-1 || s.Cache().Len() != 1 {
		t.Fatalf("cache stats = %v with %d entries, want 1 miss, %d hits or waits and 1 entry", st, s.Cache().Len(), n-1)
	}
}

// TestWhitespaceVariantsAreSeparateEntries: the cache keys by program
// text, so two texts that differ only in whitespace get an entry each,
// and each body equals `bmsched -json` of its own file.
func TestWhitespaceVariantsAreSeparateEntries(t *testing.T) {
	srcs, paths := testPrograms(t, 1, 30)
	variant := "\n" + strings.ReplaceAll(srcs[0], " = ", "  =  ")
	vpath := filepath.Join(t.TempDir(), "variant.bb")
	if err := os.WriteFile(vpath, []byte(variant), 0o600); err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i, tc := range []struct{ src, path string }{{srcs[0], paths[0]}, {variant, vpath}} {
		status, body := postJSON(t, ts.URL+"/v1/schedule", serve.Request{Src: tc.src, Procs: 4, Seed: 2})
		if status != http.StatusOK {
			t.Fatalf("text %d: status %d (%s)", i, status, body)
		}
		if !bytes.Equal(body, schedOracle(t, tc.path, 4, 2)) {
			t.Fatalf("text %d: served schedule differs from bmsched -json", i)
		}
	}
	if st := s.Cache().Stats(); st.Misses != 2 || st.Hits != 0 || s.Cache().Len() != 2 {
		t.Fatalf("cache stats = %v with %d entries, want 2 misses and 2 entries", st, s.Cache().Len())
	}
}

// TestCompileErrorIsNotCached: a program that does not parse answers 400
// with the parser's error every time it is posted, and is never stored.
func TestCompileErrorIsNotCached(t *testing.T) {
	s := serve.New(serve.Config{MaxBatch: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, want := serve.CompileDAG("this is not the benchmark language")
	wantBody, _ := json.Marshal(map[string]string{"error": want.Error()})
	for i := 0; i < 2; i++ {
		status, body := postJSON(t, ts.URL+"/v1/schedule", serve.Request{Src: "this is not the benchmark language"})
		if status != http.StatusBadRequest || !bytes.Equal(bytes.TrimSpace(body), wantBody) {
			t.Fatalf("post %d: status %d body %s, want 400 %s", i, status, body, wantBody)
		}
	}
	if n := s.Cache().Len(); n != 0 {
		t.Fatalf("%d entries resident after two compile errors, want 0", n)
	}
}
