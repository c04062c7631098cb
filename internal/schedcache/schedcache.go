package schedcache

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"

	"barriermimd/internal/core"
	"barriermimd/internal/dag"
	"barriermimd/internal/machine"
	"barriermimd/internal/metrics"
	"barriermimd/internal/obsv"
)

// DefaultCapacity is the entry bound used by New(0).
const DefaultCapacity = 1024

// numShards is the shard count; a power of two so shard selection is a
// mask of the fingerprint's low bits. 16 shards keep lock contention
// negligible at batch-driver worker counts without inflating the
// per-cache footprint.
const numShards = 16

// Key is the full decision-relevant identity of a scheduling run: what
// is scheduled plus every Options field that can change ScheduleDAG's
// output. Parallelism, Recorder, and Cache are deliberately excluded —
// schedules are byte-identical across all their values.
//
// What is scheduled comes in two kinds. A DAG key (KeyFor, the
// Options.Cache path) leaves Src empty and carries the graph's content
// fingerprint in FP. A source key (Source, the bmserve path) carries the
// program text in Src and its TextFingerprint in FP. Map equality
// compares Src byte for byte, so a source key matches only its own text,
// and since Source refuses empty text the two kinds never meet.
type Key struct {
	Src        string
	FP         Fingerprint
	Processors int
	Machine    core.MachineKind
	Insertion  core.Insertion
	Ordering   core.Ordering
	Assignment core.Assignment
	Lookahead  int
	Seed       int64
	PathLimit  int
}

// defaultPathLimit mirrors the scheduler's interpretation of
// Options.PathLimit == 0, so explicit 64 and implicit 64 share an entry.
const defaultPathLimit = 64

// KeyFor builds the DAG key for (g, opts).
func KeyFor(g *dag.Graph, opts core.Options) Key {
	return optionsKey("", FingerprintOf(g), opts)
}

// optionsKey fills in the option fields of a key for src and fp.
func optionsKey(src string, fp Fingerprint, opts core.Options) Key {
	pl := opts.PathLimit
	if pl <= 0 {
		pl = defaultPathLimit
	}
	return Key{
		Src:        src,
		FP:         fp,
		Processors: opts.Processors,
		Machine:    opts.Machine,
		Insertion:  opts.Insertion,
		Ordering:   opts.Ordering,
		Assignment: opts.Assignment,
		Lookahead:  opts.Lookahead,
		Seed:       opts.Seed,
		PathLimit:  pl,
	}
}

// Entry is one cached scheduling result. The schedule and its graph are
// immutable once published; the machine plan is compiled on the first
// Plan call and shared from then on.
type Entry struct {
	key   Key
	sched *core.Schedule

	planOnce sync.Once
	plan     *machine.Plan
	planErr  error

	elem *list.Element // position in the owning shard's LRU list
}

// Schedule returns the entry's schedule. Every caller that finds the
// entry shares it, so it must not be modified.
func (e *Entry) Schedule() *core.Schedule { return e.sched }

// Plan returns the entry's compiled machine plan. It is compiled at most
// once per entry and shared by every caller.
func (e *Entry) Plan() (*machine.Plan, error) {
	e.planOnce.Do(func() {
		e.plan, e.planErr = machine.Compile(e.sched, e.key.Machine)
	})
	return e.plan, e.planErr
}

// flight tracks one in-progress computation for singleflight: losers of
// the insert race block on done and read the winner's result.
type flight struct {
	done chan struct{}
	ent  *Entry // nil when the computation errored
	err  error  // the winner's error
}

// shard is one lock domain: a key-indexed map plus an LRU list whose
// front is the most recently used entry.
type shard struct {
	mu       sync.Mutex
	entries  map[Key]*Entry
	lru      *list.List // of *Entry
	inflight map[Key]*flight
}

// Cache is a bounded, sharded, singleflight memoization table for
// scheduling runs. It implements core.ScheduleCache.
//
// Concurrency: all methods are safe for concurrent use. A novel key is
// computed exactly once — concurrent requests for it block on the first
// (counted as Waits) rather than scheduling redundantly.
//
// Correctness: a 128-bit hash match is not a proof of equality, so every
// DAG-key match is verified with dag.Equal before being served; a match
// that fails verification (a hash collision) is counted Rejected and the
// request is scheduled fresh, uncached. A source key holds its text, so
// its map match is already exact and is never rejected. Served hits are
// byte-identical to a fresh run by construction.
type Cache struct {
	capacity int
	shards   [numShards]shard

	hits      atomic.Uint64
	misses    atomic.Uint64
	waits     atomic.Uint64
	evictions atomic.Uint64
	rejected  atomic.Uint64
}

// global aggregates traffic across every Cache in the process, for the
// Prometheus registry (internal/cli's DefaultRegistry exports it).
var global struct {
	hits, misses, waits, evictions, rejected atomic.Uint64
}

// New returns a cache bounded to capacity entries (DefaultCapacity when
// capacity <= 0). Eviction is least-recently-used per shard.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	c := &Cache{capacity: capacity}
	for i := range c.shards {
		c.shards[i].entries = make(map[Key]*Entry)
		c.shards[i].lru = list.New()
		c.shards[i].inflight = make(map[Key]*flight)
	}
	return c
}

var _ core.ScheduleCache = (*Cache)(nil)

func (c *Cache) shardFor(k Key) *shard {
	return &c.shards[k.FP.Lo&(numShards-1)]
}

// shardCap returns the per-shard entry bound. Capacity is distributed
// evenly; every shard holds at least one entry so a tiny capacity still
// caches.
func (c *Cache) shardCap() int {
	per := c.capacity / numShards
	if c.capacity%numShards != 0 {
		per++
	}
	if per < 1 {
		per = 1
	}
	return per
}

// Schedule returns the memoized schedule for (g, opts), computing it with
// core.ScheduleDAG on a miss. It implements core.ScheduleCache.
//
// On a hit whose cached graph is the same object as g, the shared
// schedule is returned directly (zero allocations). When g is a distinct
// but dag.Equal object, the schedule is rebound onto g with
// Schedule.CloneForGraph so renderings show the caller's block text.
func (c *Cache) Schedule(g *dag.Graph, opts core.Options) (*core.Schedule, error) {
	rec := opts.Recorder
	key := KeyFor(g, opts)
	sh := c.shardFor(key)

	sh.mu.Lock()
	if ent, ok := sh.entries[key]; ok {
		if dag.Equal(ent.sched.Graph, g) {
			sh.lru.MoveToFront(ent.elem)
			sh.mu.Unlock()
			c.hits.Add(1)
			global.hits.Add(1)
			return serveHit(ent, g, rec)
		}
		// Same fingerprint, different index-space content: a 2^-128
		// collision. The cached schedule is not valid for g; schedule
		// fresh and leave the resident entry alone.
		sh.mu.Unlock()
		c.reject(key, rec)
		return core.ScheduleDAG(g, scrubOpts(opts))
	}
	if fl, ok := sh.inflight[key]; ok {
		sh.mu.Unlock()
		c.wait(key, rec)
		<-fl.done
		if fl.ent == nil {
			// The winner errored. ScheduleDAG errors depend on the options
			// and graph together, and our graph is only fingerprint-equal
			// to the winner's; compute our own answer rather than inherit
			// a verdict about a possibly different graph.
			return core.ScheduleDAG(g, scrubOpts(opts))
		}
		if !dag.Equal(fl.ent.sched.Graph, g) {
			c.reject(key, nil)
			return core.ScheduleDAG(g, scrubOpts(opts))
		}
		return serveHit(fl.ent, g, nil)
	}
	fl := &flight{done: make(chan struct{})}
	sh.inflight[key] = fl
	sh.mu.Unlock()

	c.miss(key, rec)
	sched, err := core.ScheduleDAG(g, scrubOpts(opts))
	ent := c.store(sh, key, fl, sched, err, rec)
	if err != nil {
		return nil, err
	}
	return ent.sched, nil
}

// CompileError is the error Source returns when the program text does
// not compile. Its text is the compile function's own; it lets a caller
// tell a bad program from a scheduling failure.
type CompileError struct{ Err error }

func (e *CompileError) Error() string { return e.Err.Error() }

// Unwrap returns the compile function's error.
func (e *CompileError) Unwrap() error { return e.Err }

// errEmptySource refuses the one text a source key cannot hold: an empty
// Src marks a DAG key.
var errEmptySource = &CompileError{errors.New("schedcache: empty program text")}

// Source returns the entry for program text src scheduled under opts. On
// a miss it builds the graph with compile and schedules it with
// core.ScheduleDAG, both once under the key's singleflight; neither run
// is traced, and an error from either is returned but not stored.
// Compile errors, and an empty src, come back as *CompileError.
//
// Equal text compiles to an equal graph, so the entry's schedule is
// byte-identical to a fresh run on src, and a hit needs no verification.
// A waiter whose winner failed takes the winner's error: it asked for the
// same text under the same options. Two different texts with equal
// graphs get separate entries.
//
// rec, when non-nil, receives this lookup's sched-cache-{hit,miss,wait,
// evict} event, with the text's fingerprint as the arguments.
// opts.Recorder and opts.Cache are ignored.
func (c *Cache) Source(src string, opts core.Options, compile func(string) (*dag.Graph, error), rec obsv.Recorder) (*Entry, error) {
	if src == "" {
		return nil, errEmptySource
	}
	key := optionsKey(src, TextFingerprint(src), opts)
	sh := c.shardFor(key)

	sh.mu.Lock()
	if ent, ok := sh.entries[key]; ok {
		sh.lru.MoveToFront(ent.elem)
		sh.mu.Unlock()
		c.hits.Add(1)
		global.hits.Add(1)
		if rec != nil {
			rec.Record(obsv.Event{Kind: obsv.KindSchedCacheHit,
				Arg0: int64(key.FP.Hi), Arg1: int64(key.FP.Lo)})
		}
		return ent, nil
	}
	if fl, ok := sh.inflight[key]; ok {
		sh.mu.Unlock()
		c.wait(key, rec)
		<-fl.done
		return fl.ent, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	sh.inflight[key] = fl
	sh.mu.Unlock()

	c.miss(key, rec)
	var sched *core.Schedule
	g, err := compile(src)
	if err != nil {
		err = &CompileError{err}
	} else {
		opts.Recorder, opts.Cache = nil, nil
		sched, err = core.ScheduleDAG(g, opts)
	}
	return c.store(sh, key, fl, sched, err, rec), err
}

// miss records a miss in the counters and trace.
func (c *Cache) miss(key Key, rec obsv.Recorder) {
	c.misses.Add(1)
	global.misses.Add(1)
	if rec != nil {
		rec.Record(obsv.Event{Kind: obsv.KindSchedCacheMiss,
			Arg0: int64(key.FP.Hi), Arg1: int64(key.FP.Lo)})
	}
}

// wait records a singleflight wait in the counters and trace.
func (c *Cache) wait(key Key, rec obsv.Recorder) {
	c.waits.Add(1)
	global.waits.Add(1)
	if rec != nil {
		rec.Record(obsv.Event{Kind: obsv.KindSchedCacheWait,
			Arg0: int64(key.FP.Hi), Arg1: int64(key.FP.Lo)})
	}
}

// reject records a verified-false fingerprint match. A rejection is its
// own lookup outcome, not also a miss; the trace shows it as a miss event
// (the request does schedule fresh) so cached traces stay exhaustive.
func (c *Cache) reject(key Key, rec obsv.Recorder) {
	c.rejected.Add(1)
	global.rejected.Add(1)
	if rec != nil {
		rec.Record(obsv.Event{Kind: obsv.KindSchedCacheMiss,
			Arg0: int64(key.FP.Hi), Arg1: int64(key.FP.Lo)})
	}
}

// store publishes a computed result, resolves the key's flight, applies
// LRU eviction, and records any eviction to rec. It returns the stored
// entry, or nil when err is set (an error is handed to the flight's
// waiters but not stored). Only the key's flight owner calls store, and
// the key stays in inflight until store removes it, so no entry for the
// key is resident.
func (c *Cache) store(sh *shard, key Key, fl *flight, sched *core.Schedule, err error, rec obsv.Recorder) *Entry {
	sh.mu.Lock()
	delete(sh.inflight, key)
	if err != nil {
		fl.err = err
		sh.mu.Unlock()
		close(fl.done)
		return nil
	}
	// Scrub references the cached (long-lived, shared) schedule must not
	// retain or expose: the recorder belongs to the computing caller.
	sched.Opts.Recorder = nil
	sched.Opts.Cache = nil
	ent := &Entry{key: key, sched: sched}
	sh.entries[key] = ent
	ent.elem = sh.lru.PushFront(ent)
	var evicted *Entry
	if sh.lru.Len() > c.shardCap() {
		back := sh.lru.Back()
		evicted = back.Value.(*Entry)
		sh.lru.Remove(back)
		delete(sh.entries, evicted.key)
		c.evictions.Add(1)
		global.evictions.Add(1)
	}
	fl.ent = ent
	sh.mu.Unlock()
	close(fl.done)
	if evicted != nil && rec != nil {
		rec.Record(obsv.Event{Kind: obsv.KindSchedCacheEvict,
			Arg0: int64(evicted.key.FP.Hi), Arg1: int64(evicted.key.FP.Lo)})
	}
	return ent
}

// serveHit returns the cached schedule for g, rebinding it when g is a
// distinct graph object, and emits the hit event.
func serveHit(ent *Entry, g *dag.Graph, rec obsv.Recorder) (*core.Schedule, error) {
	rebound := int64(0)
	sched := ent.sched
	if sched.Graph != g {
		sched = sched.CloneForGraph(g)
		rebound = 1
	}
	if rec != nil {
		rec.Record(obsv.Event{Kind: obsv.KindSchedCacheHit,
			Arg0: int64(ent.key.FP.Hi), Arg1: int64(ent.key.FP.Lo), Arg2: rebound})
	}
	return sched, nil
}

// scrubOpts strips the fields a cache-mediated ScheduleDAG call must not
// carry: Cache (the callee is the cache) and nothing else — the computing
// run keeps the caller's Recorder so a miss still traces the full
// scheduling decision stream.
func scrubOpts(opts core.Options) core.Options {
	opts.Cache = nil
	return opts
}

// Stats snapshots this cache's traffic counters.
func (c *Cache) Stats() metrics.MemoStats {
	return metrics.MemoStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Waits:     c.waits.Load(),
		Evictions: c.evictions.Load(),
		Rejected:  c.rejected.Load(),
	}
}

// GlobalStats snapshots the process-wide counters aggregated across every
// Cache, the series the Prometheus registry exports.
func GlobalStats() metrics.MemoStats {
	return metrics.MemoStats{
		Hits:      global.hits.Load(),
		Misses:    global.misses.Load(),
		Waits:     global.waits.Load(),
		Evictions: global.evictions.Load(),
		Rejected:  global.rejected.Load(),
	}
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}
