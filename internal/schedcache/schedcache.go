package schedcache

import (
	"container/list"
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

// Key is the full decision-relevant identity of a scheduling run: the
// DAG's content fingerprint plus every Options field that can change
// ScheduleDAG's output. Parallelism, Recorder, and Cache are
// deliberately excluded — schedules are byte-identical across all their
// values.
type Key struct {
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

// KeyFor builds the cache key for (g, opts).
func KeyFor(g *dag.Graph, opts core.Options) Key {
	pl := opts.PathLimit
	if pl <= 0 {
		pl = defaultPathLimit
	}
	return Key{
		FP:         FingerprintOf(g),
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

// entry is one cached scheduling result. The schedule and its graph are
// immutable once published; the machine plan is attached lazily on first
// Plan call and shared from then on.
type entry struct {
	key   Key
	sched *core.Schedule

	planOnce sync.Once
	plan     *machine.Plan
	planErr  error

	elem *list.Element // position in the owning shard's LRU list
}

// flight tracks one in-progress computation for singleflight: losers of
// the insert race block on done and read the winner's result.
type flight struct {
	done chan struct{}
	ent  *entry // nil when the computation errored
}

// shard is one lock domain: a key-indexed map plus an LRU list whose
// front is the most recently used entry.
type shard struct {
	mu       sync.Mutex
	entries  map[Key]*entry
	lru      *list.List // of *entry
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
// fingerprint match is verified with dag.Equal before being served; a
// match that fails verification (a hash collision) is counted Rejected
// and the request is scheduled fresh, uncached. Served hits are
// byte-identical to a fresh ScheduleDAG run by construction.
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
		c.shards[i].entries = make(map[Key]*entry)
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
		c.waits.Add(1)
		global.waits.Add(1)
		if rec != nil {
			rec.Record(obsv.Event{Kind: obsv.KindSchedCacheWait,
				Arg0: int64(key.FP.Hi), Arg1: int64(key.FP.Lo)})
		}
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
	ent, evicted := c.store(sh, key, fl, sched, err)
	if err != nil {
		return nil, err
	}
	if evicted != nil && rec != nil {
		rec.Record(obsv.Event{Kind: obsv.KindSchedCacheEvict,
			Arg0: int64(evicted.key.FP.Hi), Arg1: int64(evicted.key.FP.Lo)})
	}
	return ent.sched, nil
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

// store publishes a computed result, resolves the key's flight, and
// applies LRU eviction. It returns the stored entry and the evicted one,
// if any. Only the key's flight owner calls store, and the key stays in
// inflight until store removes it, so no entry for the key is resident.
func (c *Cache) store(sh *shard, key Key, fl *flight, sched *core.Schedule, err error) (*entry, *entry) {
	var evicted *entry
	sh.mu.Lock()
	delete(sh.inflight, key)
	if err != nil {
		sh.mu.Unlock()
		close(fl.done)
		return nil, nil
	}
	// Scrub references the cached (long-lived, shared) schedule must not
	// retain or expose: the recorder belongs to the computing caller.
	sched.Opts.Recorder = nil
	sched.Opts.Cache = nil
	ent := &entry{key: key, sched: sched}
	sh.entries[key] = ent
	ent.elem = sh.lru.PushFront(ent)
	if sh.lru.Len() > c.shardCap() {
		back := sh.lru.Back()
		victim := back.Value.(*entry)
		sh.lru.Remove(back)
		delete(sh.entries, victim.key)
		evicted = victim
		c.evictions.Add(1)
		global.evictions.Add(1)
	}
	fl.ent = ent
	sh.mu.Unlock()
	close(fl.done)
	return ent, evicted
}

// serveHit returns the cached schedule for g, rebinding it when g is a
// distinct graph object, and emits the hit event.
func serveHit(ent *entry, g *dag.Graph, rec obsv.Recorder) (*core.Schedule, error) {
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

// Plan returns the compiled machine plan of sched, a schedule this cache
// returned for (g, opts). The plan is built at most once per cache entry
// and shared by every subsequent caller; a schedule whose entry is gone
// or was never stored (errors, rejected fingerprint matches) gets a
// private plan. Plan is not a schedule lookup: it counts no hit or miss.
func (c *Cache) Plan(g *dag.Graph, opts core.Options, sched *core.Schedule) (*machine.Plan, error) {
	key := KeyFor(g, opts)
	sh := c.shardFor(key)
	sh.mu.Lock()
	ent, ok := sh.entries[key]
	sh.mu.Unlock()
	if !ok || !dag.Equal(ent.sched.Graph, g) {
		return machine.Compile(sched, opts.Machine)
	}
	ent.planOnce.Do(func() {
		ent.plan, ent.planErr = machine.Compile(ent.sched, opts.Machine)
	})
	return ent.plan, ent.planErr
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
