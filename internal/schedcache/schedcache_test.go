package schedcache_test

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"barriermimd/internal/cfg"
	"barriermimd/internal/core"
	"barriermimd/internal/dag"
	"barriermimd/internal/ir"
	"barriermimd/internal/lang"
	"barriermimd/internal/machine"
	"barriermimd/internal/obsv"
	"barriermimd/internal/opt"
	"barriermimd/internal/schedcache"
	"barriermimd/internal/synth"
)

func exportJSON(t *testing.T, s *core.Schedule) []byte {
	t.Helper()
	j, err := s.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// compileSrc is the compile function the source-lookup tests pass: the
// CLI front end (parse, compile, optimize, build with the paper's
// timings), returning its errors.
func compileSrc(src string) (*dag.Graph, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	naive, err := lang.Compile(prog)
	if err != nil {
		return nil, err
	}
	optimized, _, err := opt.Optimize(naive)
	if err != nil {
		return nil, err
	}
	return dag.Build(optimized, ir.DefaultTimings())
}

// countingCompile is compileSrc with a call counter.
type countingCompile struct{ calls atomic.Int64 }

func (c *countingCompile) compile(src string) (*dag.Graph, error) {
	c.calls.Add(1)
	return compileSrc(src)
}

// synthSource is the text of the synthetic program synthGraph builds.
func synthSource(stmts, vars int, seed int64) string {
	return synth.MustGenerate(synth.Config{Statements: stmts, Variables: vars}, seed).String()
}

// TestCacheHitsAreByteIdenticalToFreshRuns is the cache identity oracle:
// across machines, insertion policies, and seeds, the schedule served on a
// hit must export byte-identically to an uncached ScheduleDAG run with the
// same arguments.
func TestCacheHitsAreByteIdenticalToFreshRuns(t *testing.T) {
	cases := []struct {
		name      string
		stmts     int
		procs     int
		machine   core.MachineKind
		insertion core.Insertion
		seed      int64
		pathLimit int
	}{
		{"sbm-conservative", 30, 4, core.SBM, core.Conservative, 1, 0},
		{"sbm-optimal", 30, 8, core.SBM, core.Optimal, 2, 0},
		{"sbm-naive", 25, 4, core.SBM, core.Naive, 3, 0},
		{"dbm-conservative", 35, 8, core.DBM, core.Conservative, 4, 0},
		{"dbm-optimal", 30, 6, core.DBM, core.Optimal, 5, 0},
		{"sbm-optimal-k2", 30, 8, core.SBM, core.Optimal, 6, 2},
		{"dbm-seeded", 35, 8, core.DBM, core.Conservative, 99, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			g := synthGraph(t, tc.stmts, 5, tc.seed)
			opts := core.DefaultOptions(tc.procs)
			opts.Machine = tc.machine
			opts.Insertion = tc.insertion
			opts.Seed = tc.seed
			opts.PathLimit = tc.pathLimit

			fresh, err := core.ScheduleDAG(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := exportJSON(t, fresh)

			c := schedcache.New(0)
			miss, err := c.Schedule(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			hit, err := c.Schedule(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := exportJSON(t, miss); !bytes.Equal(got, want) {
				t.Fatalf("miss-path schedule differs from fresh run\ncached:\n%s\nfresh:\n%s", got, want)
			}
			if got := exportJSON(t, hit); !bytes.Equal(got, want) {
				t.Fatalf("hit-path schedule differs from fresh run\ncached:\n%s\nfresh:\n%s", got, want)
			}
			if err := hit.Validate(); err != nil {
				t.Fatal(err)
			}
			st := c.Stats()
			if st.Misses != 1 || st.Hits != 1 || st.Rejected != 0 {
				t.Fatalf("stats = %v, want 1 miss + 1 hit", st)
			}

			// The source key serves the same bytes for the program text.
			src := synthSource(tc.stmts, 5, tc.seed)
			for _, path := range []string{"miss", "hit"} {
				ent, err := c.Source(src, opts, compileSrc, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := exportJSON(t, ent.Schedule()); !bytes.Equal(got, want) {
					t.Fatalf("source %s-path schedule differs from fresh run\ncached:\n%s\nfresh:\n%s", path, got, want)
				}
			}
			if st := c.Stats(); st.Misses != 2 || st.Hits != 2 || st.Rejected != 0 {
				t.Fatalf("stats = %v, want 2 misses + 2 hits", st)
			}
		})
	}
}

// TestCacheKeySeparatesOptions: changing any decision-relevant option must
// miss and store a separate entry; changing only decision-irrelevant
// options must hit. Both key kinds, the DAG key and the source key, hold.
func TestCacheKeySeparatesOptions(t *testing.T) {
	g := synthGraph(t, 30, 5, 7)
	src := synthSource(30, 5, 7)
	lookups := []struct {
		name   string
		lookup func(*schedcache.Cache, core.Options) error
	}{
		{"dag", func(c *schedcache.Cache, o core.Options) error {
			_, err := c.Schedule(g, o)
			return err
		}},
		{"source", func(c *schedcache.Cache, o core.Options) error {
			_, err := c.Source(src, o, compileSrc, nil)
			return err
		}},
	}
	relevant := []func(*core.Options){
		func(o *core.Options) { o.Processors = 8 },
		func(o *core.Options) { o.Machine = core.DBM },
		func(o *core.Options) { o.Insertion = core.Optimal },
		func(o *core.Options) { o.Ordering = core.MinHeightFirst },
		func(o *core.Options) { o.Assignment = core.RoundRobin },
		func(o *core.Options) { o.Lookahead = 3 },
		func(o *core.Options) { o.Seed = 42 },
		func(o *core.Options) { o.Insertion = core.Optimal; o.PathLimit = 2 },
	}
	irrelevant := []func(*core.Options){
		func(o *core.Options) { o.Parallelism = 7 },
		func(o *core.Options) { o.PathLimit = 64 }, // == implicit default
	}
	for _, lk := range lookups {
		t.Run(lk.name, func(t *testing.T) {
			base := core.DefaultOptions(4)
			c := schedcache.New(0)
			if err := lk.lookup(c, base); err != nil {
				t.Fatal(err)
			}
			for i, mut := range relevant {
				opts := base
				mut(&opts)
				before := c.Stats().Misses
				if err := lk.lookup(c, opts); err != nil {
					t.Fatal(err)
				}
				if c.Stats().Misses != before+1 {
					t.Fatalf("mutation %d did not miss", i)
				}
				if n := c.Len(); n != i+2 {
					t.Fatalf("mutation %d: %d resident entries, want %d", i, n, i+2)
				}
			}
			for i, mut := range irrelevant {
				opts := base
				mut(&opts)
				before := c.Stats().Hits
				if err := lk.lookup(c, opts); err != nil {
					t.Fatal(err)
				}
				if c.Stats().Hits != before+1 {
					t.Fatalf("irrelevant mutation %d did not hit", i)
				}
			}
		})
	}
}

// TestCacheReboundHit: a hit served to a distinct-but-Equal graph object
// must be rebound onto the caller's graph and stay byte-identical.
func TestCacheReboundHit(t *testing.T) {
	const src = "c = a + b\nd = c * c\ne = d - a\nf = e + b"
	g1 := buildGraph(t, src)
	g2 := buildGraph(t, src)
	opts := core.DefaultOptions(4)

	c := schedcache.New(0)
	s1, err := c.Schedule(g1, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := obsv.NewRing(16)
	opts.Recorder = rec
	s2, err := c.Schedule(g2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %v, want 1 hit + 1 miss", st)
	}
	if s2.Graph != g2 {
		t.Fatal("hit schedule not rebound onto the caller's graph")
	}
	if s2.Procs == nil || &s2.Procs[0] != &s1.Procs[0] {
		t.Fatal("rebound schedule must share timelines with the cached one")
	}
	if !bytes.Equal(exportJSON(t, s1), exportJSON(t, s2)) {
		t.Fatal("rebound schedule exports differently")
	}
	var sawHit bool
	rec.Do(func(ev obsv.Event) {
		if ev.Kind == obsv.KindSchedCacheHit && ev.Arg2 == 1 {
			sawHit = true
		}
	})
	if !sawHit {
		t.Fatal("no rebound sched-cache-hit event recorded")
	}
}

// TestCacheRejectsIsomorphCollisions: isomorphic-but-reindexed graphs can
// legally schedule differently, because the scheduler's tie-breaks read
// node indices, so the cache must never serve one's schedule for the
// other. The index-order key keeps them apart: two keys, two misses, no
// rejection, and each graph gets its own fresh schedule.
func TestCacheRejectsIsomorphCollisions(t *testing.T) {
	g1, g2 := isomorphPair(t)
	if dag.Equal(g1, g2) {
		t.Fatal("pair must differ in index space for this test to mean anything")
	}
	if schedcache.FingerprintOf(g1) == schedcache.FingerprintOf(g2) {
		t.Fatal("reindexed isomorphs share a fingerprint")
	}
	opts := core.DefaultOptions(3)
	opts.Seed = 11

	c := schedcache.New(0)
	if _, err := c.Schedule(g1, opts); err != nil {
		t.Fatal(err)
	}
	s2, err := c.Schedule(g2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 || st.Rejected != 0 {
		t.Fatalf("stats = %v, want 2 misses and no hit or rejection", st)
	}
	fresh, err := core.ScheduleDAG(g2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exportJSON(t, s2), exportJSON(t, fresh)) {
		t.Fatal("second isomorph's schedule differs from a fresh run")
	}
	if s2.Graph != g2 {
		t.Fatal("second isomorph's schedule carries the wrong graph")
	}
}

// TestCacheSingleflight: concurrent requests for one novel key must compute
// it exactly once; everyone else hits or waits and gets the same result.
// The source key also compiles the text only once.
func TestCacheSingleflight(t *testing.T) {
	g := synthGraph(t, 60, 6, 13)
	src := synthSource(60, 6, 13)
	opts := core.DefaultOptions(8)
	opts.Insertion = core.Optimal
	var cc countingCompile
	lookups := []struct {
		name   string
		lookup func(*schedcache.Cache) (any, error)
	}{
		{"dag", func(c *schedcache.Cache) (any, error) { return c.Schedule(g, opts) }},
		{"source", func(c *schedcache.Cache) (any, error) { return c.Source(src, opts, cc.compile, nil) }},
	}
	for _, lk := range lookups {
		t.Run(lk.name, func(t *testing.T) {
			c := schedcache.New(0)
			const workers = 16
			var wg sync.WaitGroup
			start := make(chan struct{})
			results := make([]any, workers)
			for i := 0; i < workers; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					r, err := lk.lookup(c)
					if err != nil {
						t.Error(err)
						return
					}
					results[i] = r
				}()
			}
			close(start)
			wg.Wait()

			st := c.Stats()
			if st.Misses != 1 {
				t.Fatalf("stats = %v, want exactly 1 miss (singleflight)", st)
			}
			if st.Hits+st.Waits != workers-1 {
				t.Fatalf("stats = %v, want hits+waits = %d", st, workers-1)
			}
			for i := 1; i < workers; i++ {
				if results[i] != results[0] {
					t.Fatal("one key must yield one shared result")
				}
			}
		})
	}
	if n := cc.calls.Load(); n != 1 {
		t.Fatalf("compile ran %d times, want 1", n)
	}
}

// TestCacheEvictionUnderConcurrentLoad drives a tiny cache from many
// goroutines (run under -race in CI) and checks the bound holds and
// results stay valid.
func TestCacheEvictionUnderConcurrentLoad(t *testing.T) {
	const capacity = 16
	c := schedcache.New(capacity)
	graphs := make([]*dag.Graph, 48)
	for i := range graphs {
		graphs[i] = synthGraph(t, 20, 4, int64(100+i))
	}
	opts := core.DefaultOptions(4)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i := range graphs {
					g := graphs[(i+w*7)%len(graphs)]
					s, err := c.Schedule(g, opts)
					if err != nil {
						t.Error(err)
						return
					}
					if err := s.Validate(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("stats = %v, want evictions under a %d-entry bound with %d keys", st, capacity, len(graphs))
	}
	if n := c.Len(); n > capacity {
		t.Fatalf("cache holds %d entries, bound is %d", n, capacity)
	}
	if st.Lookups() != 8*3*uint64(len(graphs)) {
		t.Fatalf("stats = %v, lookups don't add up to %d", st, 8*3*len(graphs))
	}
}

// TestCacheWarmHitDoesNotAllocate pins the 0-alloc hot path: a warm hit
// performs no allocations, both with a pointer-identical graph and with a
// resident program text.
func TestCacheWarmHitDoesNotAllocate(t *testing.T) {
	g := synthGraph(t, 40, 5, 17)
	src := synthSource(40, 5, 17)
	opts := core.DefaultOptions(8)
	c := schedcache.New(0)
	rows := []struct {
		name   string
		lookup func() error
	}{
		{"dag", func() error {
			_, err := c.Schedule(g, opts)
			return err
		}},
		{"source", func() error {
			_, err := c.Source(src, opts, compileSrc, nil)
			return err
		}},
	}
	for _, row := range rows {
		if err := row.lookup(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := row.lookup(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: warm hit allocates %.1f times per op, want 0", row.name, allocs)
		}
	}
}

// TestScheduleDAGDelegatesToCache: core.ScheduleDAG with Options.Cache set
// must route through the cache (and not recurse into it).
func TestScheduleDAGDelegatesToCache(t *testing.T) {
	g := synthGraph(t, 25, 4, 19)
	c := schedcache.New(0)
	opts := core.DefaultOptions(4)
	opts.Cache = c

	s1, err := core.ScheduleDAG(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := core.ScheduleDAG(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("second ScheduleDAG call did not return the cached schedule")
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %v, want 1 miss + 1 hit", st)
	}
	if s1.Opts.Cache != nil || s1.Opts.Recorder != nil {
		t.Fatal("cached schedule retains Cache/Recorder references")
	}
}

// TestSchedulePlanSharesCompiledPlan: an entry's machine plan is compiled
// once and shared by every lookup that finds the entry, and fetching it
// counts no lookup.
func TestSchedulePlanSharesCompiledPlan(t *testing.T) {
	src := synthSource(30, 5, 23)
	opts := core.DefaultOptions(4)
	c := schedcache.New(0)

	entryPlan := func() (*schedcache.Entry, *machine.Plan) {
		e, err := c.Source(src, opts, compileSrc, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.Plan()
		if err != nil {
			t.Fatal(err)
		}
		return e, p
	}
	e1, p1 := entryPlan()
	e2, p2 := entryPlan()
	if e1 != e2 || p1 != p2 {
		t.Fatal("plan not shared across lookups")
	}
	if p1 == nil {
		t.Fatal("nil plan")
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %v, want 1 miss + 1 hit", st)
	}
}

// TestSourceErrorsAreNotStored: a compile error comes back as a
// *CompileError carrying the compile function's text, a scheduling error
// comes back as itself, and neither leaves an entry, so the next lookup
// computes again. An empty text is refused before any lookup.
func TestSourceErrorsAreNotStored(t *testing.T) {
	c := schedcache.New(0)
	var cc countingCompile
	const bad = "this is not the benchmark language"
	_, want := compileSrc(bad)
	for i := 1; i <= 2; i++ {
		_, err := c.Source(bad, core.DefaultOptions(4), cc.compile, nil)
		var ce *schedcache.CompileError
		if !errors.As(err, &ce) || err.Error() != want.Error() {
			t.Fatalf("lookup %d: err = %v, want *CompileError %q", i, err, want)
		}
		if n := cc.calls.Load(); n != int64(i) {
			t.Fatalf("lookup %d: compile ran %d times, want %d", i, n, i)
		}
	}

	_, err := c.Source("c = a + b", core.DefaultOptions(0), compileSrc, nil)
	var ce *schedcache.CompileError
	if err == nil || errors.As(err, &ce) {
		t.Fatalf("zero processors: err = %v, want a scheduling error", err)
	}
	if st := c.Stats(); st.Misses != 3 || st.Hits != 0 || c.Len() != 0 {
		t.Fatalf("stats = %v with %d entries, want 3 misses and nothing stored", st, c.Len())
	}

	if _, err := c.Source("", core.DefaultOptions(4), cc.compile, nil); !errors.As(err, &ce) {
		t.Fatalf("empty text: err = %v, want *CompileError", err)
	}
	if n, st := cc.calls.Load(), c.Stats(); n != 2 || st.Lookups() != 3 {
		t.Fatalf("empty text reached the cache: %d compiles, stats = %v", n, st)
	}
}

// TestSourceWaitersShareWinnersError: lookups that wait on a failing
// computation take the winner's error instead of compiling again, since
// they asked for the same text under the same options.
func TestSourceWaitersShareWinnersError(t *testing.T) {
	c := schedcache.New(0)
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	boom := errors.New("no such program")
	compile := func(string) (*dag.Graph, error) {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		return nil, boom
	}
	opts := core.DefaultOptions(4)

	const waiters = 15
	errs := make(chan error, waiters+1)
	lookup := func() {
		_, err := c.Source("c = a + b", opts, compile, nil)
		errs <- err
	}
	go lookup()
	<-entered
	for i := 0; i < waiters; i++ {
		go lookup()
	}
	for deadline := time.Now().Add(10 * time.Second); c.Stats().Waits < waiters; {
		if time.Now().After(deadline) {
			t.Fatalf("stats = %v, want %d waiters parked", c.Stats(), waiters)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i <= waiters; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("lookup returned %v, want the winner's error", err)
		}
	}
	if n := calls.Load(); n != 1 || c.Len() != 0 {
		t.Fatalf("compile ran %d times and %d entries stored, want 1 and 0", n, c.Len())
	}
}

// TestSourceTracesLookups: a source lookup records its cache events to the
// recorder it is given, with the text's fingerprint as the arguments; the
// scheduling run of a miss records nothing.
func TestSourceTracesLookups(t *testing.T) {
	src := synthSource(20, 4, 29)
	c := schedcache.New(0)
	ring := obsv.NewRing(64)
	opts := core.DefaultOptions(4)
	opts.Recorder = obsv.NewRing(1) // ignored: the recorder is an argument
	for i := 0; i < 2; i++ {
		if _, err := c.Source(src, opts, compileSrc, ring); err != nil {
			t.Fatal(err)
		}
	}
	evs := ring.Events()
	fp := schedcache.TextFingerprint(src)
	if len(evs) != 2 || evs[0].Kind != obsv.KindSchedCacheMiss || evs[1].Kind != obsv.KindSchedCacheHit {
		t.Fatalf("events = %v, want one miss then one hit", evs)
	}
	for _, ev := range evs {
		if ev.Arg0 != int64(fp.Hi) || ev.Arg1 != int64(fp.Lo) || ev.Arg2 != 0 {
			t.Fatalf("event %v, want args (%d, %d, 0)", ev, int64(fp.Hi), int64(fp.Lo))
		}
	}
	if n := opts.Recorder.(*obsv.Ring).Len(); n != 0 {
		t.Fatalf("opts.Recorder got %d events, want none", n)
	}
}

// TestCacheIsOutputNeutral is the cache-transparency contract:
// ScheduleBatch and cfg.Program.Compile derive the same per-item seeds
// with or without a cache, so their output is byte-identical either way. A duplicate-heavy
// ScheduleBatch must export the same JSON at every index with a cache as
// without one, at Parallelism 1, 2 and 8, with one trace stream per mode
// at every Parallelism; and cfg.Program.Compile on a loop-heavy program,
// whose lowered blocks repeat, must give every block the same schedule.
func TestCacheIsOutputNeutral(t *testing.T) {
	uniques := make([]*dag.Graph, 4)
	for i := range uniques {
		uniques[i] = synthGraph(t, 25, 4, int64(31+i))
	}
	// 12 items, 8 of them duplicates of the 4 unique graphs.
	gs := []*dag.Graph{
		uniques[0], uniques[1], uniques[0], uniques[2],
		uniques[1], uniques[3], uniques[0], uniques[2],
		uniques[1], uniques[3], uniques[0], uniques[2],
	}
	opts := core.DefaultOptions(4)
	opts.Seed = 5

	runBatch := func(par int, c *schedcache.Cache) (scheds [][]byte, trace string) {
		o := opts
		if c != nil {
			o.Cache = c
		}
		o.Parallelism = par
		ring := obsv.NewRing(1 << 14)
		o.Recorder = ring
		out, errs, err := core.ScheduleBatch(gs, o)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range out {
			if errs[i] != nil {
				t.Fatalf("Parallelism=%d item %d: %v", par, i, errs[i])
			}
			if s.Graph != gs[i] {
				t.Fatalf("Parallelism=%d item %d not bound to its own graph", par, i)
			}
			scheds = append(scheds, exportJSON(t, s))
		}
		var buf bytes.Buffer
		if err := obsv.WriteJSONL(&buf, ring); err != nil {
			t.Fatal(err)
		}
		return scheds, buf.String()
	}

	want, plainTrace1 := runBatch(1, nil)
	var cachedTrace1 string
	for _, par := range []int{1, 2, 8} {
		c := schedcache.New(0)
		cached, cachedTrace := runBatch(par, c)
		plain, plainTrace := runBatch(par, nil)
		for i := range want {
			if !bytes.Equal(cached[i], want[i]) {
				t.Fatalf("Parallelism=%d: cached batch item %d differs from the uncached batch", par, i)
			}
			if !bytes.Equal(plain[i], want[i]) {
				t.Fatalf("Parallelism=%d changed uncached batch item %d", par, i)
			}
		}
		if st := c.Stats(); st.Misses != uint64(len(gs)) {
			t.Fatalf("Parallelism=%d: stats = %v, want one miss per item", par, st)
		}
		if cachedTrace1 == "" {
			cachedTrace1 = cachedTrace
		}
		if cachedTrace != cachedTrace1 || plainTrace != plainTrace1 {
			t.Fatalf("Parallelism=%d changed the batch trace stream", par)
		}
	}

	const loops = `s = 0
i = 32
while i {
	s = s + i * i
	i = i - 1
}
j = 32
while j {
	s = s + j * j
	j = j - 1
}
k = 32
while k {
	s = s + k * k
	k = k - 1
}`
	compileBlocks := func(c core.ScheduleCache) [][]byte {
		p, err := cfg.Lower(lang.MustParseCF(loops))
		if err != nil {
			t.Fatal(err)
		}
		p.Simplify()
		o := core.DefaultOptions(8)
		o.Cache = c
		if err := p.Compile(o, ir.DefaultTimings()); err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, b := range p.Blocks {
			out = append(out, exportJSON(t, b.Sched))
		}
		return out
	}
	plain := compileBlocks(nil)
	cached := compileBlocks(schedcache.New(0))
	for i := range plain {
		if !bytes.Equal(cached[i], plain[i]) {
			t.Fatalf("cfg block %d: cached schedule differs from the uncached one", i)
		}
	}
}
