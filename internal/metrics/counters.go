package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// CacheStats counts hits and misses of a memoization cache, such as the
// barrier-dag path-query caches in internal/bdag.
type CacheStats struct {
	Hits   uint64
	Misses uint64
}

// Lookups is the total number of cache queries.
func (c CacheStats) Lookups() uint64 { return c.Hits + c.Misses }

// HitRate is Hits / (Hits + Misses), or 0 with no lookups.
func (c CacheStats) HitRate() float64 {
	if n := c.Lookups(); n > 0 {
		return float64(c.Hits) / float64(n)
	}
	return 0
}

// Add accumulates another counter set into c (used when a cache is
// discarded and rebuilt, as the scheduler does with its barrier dag).
func (c *CacheStats) Add(o CacheStats) {
	c.Hits += o.Hits
	c.Misses += o.Misses
}

func (c CacheStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d rate=%.1f%%", c.Hits, c.Misses, 100*c.HitRate())
}

// MemoStats counts the traffic of a content-addressed memoization layer
// with bounded capacity and per-key singleflight, such as the schedule
// cache in internal/schedcache. It extends CacheStats with the lifecycle
// counters a bounded concurrent cache needs: evictions, singleflight
// waits, and verification rejects.
type MemoStats struct {
	// Hits counts lookups served from a stored entry.
	Hits uint64
	// Misses counts lookups that computed and stored a new entry.
	Misses uint64
	// Waits counts lookups that found the key's computation already in
	// flight and blocked on the winner instead of recomputing.
	Waits uint64
	// Evictions counts entries displaced by the capacity bound (LRU).
	Evictions uint64
	// Rejected counts lookups whose key matched a stored entry but whose
	// exact verification failed (for the schedule cache: a fingerprint
	// collision between non-identical graphs); the result is recomputed
	// and the stored entry left in place.
	Rejected uint64
}

// Lookups is the total number of cache queries.
func (m MemoStats) Lookups() uint64 { return m.Hits + m.Misses + m.Waits + m.Rejected }

// HitRate is the fraction of lookups served without a fresh computation
// (hits plus singleflight waits), or 0 with no lookups.
func (m MemoStats) HitRate() float64 {
	if n := m.Lookups(); n > 0 {
		return float64(m.Hits+m.Waits) / float64(n)
	}
	return 0
}

// Add accumulates another counter set into m.
func (m *MemoStats) Add(o MemoStats) {
	m.Hits += o.Hits
	m.Misses += o.Misses
	m.Waits += o.Waits
	m.Evictions += o.Evictions
	m.Rejected += o.Rejected
}

func (m MemoStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d waits=%d evictions=%d rejected=%d rate=%.1f%%",
		m.Hits, m.Misses, m.Waits, m.Evictions, m.Rejected, 100*m.HitRate())
}

// SimStats counts the simulation engine's compile/run split: how many
// immutable plans were compiled, how many executions they served, and how
// often a run's scratch state came from the recycle pool instead of a
// fresh allocation.
type SimStats struct {
	// PlansCompiled counts machine.Compile calls that produced a plan.
	PlansCompiled uint64
	// Runs counts plan executions.
	Runs uint64
	// ScratchHits counts runs whose scratch state was recycled from the
	// pool; ScratchMisses counts runs that had to allocate a fresh one.
	ScratchHits   uint64
	ScratchMisses uint64
	// Batches counts RunMany calls (lane-parallel batch executions);
	// Lanes counts the seeds those batches simulated. Batched lanes are
	// also counted in Runs, so Runs is the total seed count across
	// Plan.Run and RunMany.
	Batches uint64
	Lanes   uint64
	// SequentialLanes counts random-timing lanes (a Plan.Run counts as
	// one) whose durations could not be computed from the seed words
	// they read and replayed the sequential math/rand replica instead:
	// every lane of a plan with more than 273 nodes, and any lane whose
	// draw entered Int31n's rejection loop.
	SequentialLanes uint64
}

// RunsPerPlan is Runs / PlansCompiled, or 0 with no plans — the
// amortization factor the compile-once/run-many split is buying.
func (s SimStats) RunsPerPlan() float64 {
	if s.PlansCompiled > 0 {
		return float64(s.Runs) / float64(s.PlansCompiled)
	}
	return 0
}

// PoolHitRate is ScratchHits / (ScratchHits + ScratchMisses), or 0 with no
// runs.
func (s SimStats) PoolHitRate() float64 {
	if n := s.ScratchHits + s.ScratchMisses; n > 0 {
		return float64(s.ScratchHits) / float64(n)
	}
	return 0
}

// LanesPerBatch is Lanes / Batches, or 0 with no batches — the average
// batch width the lane-parallel kernel is running at.
func (s SimStats) LanesPerBatch() float64 {
	if s.Batches > 0 {
		return float64(s.Lanes) / float64(s.Batches)
	}
	return 0
}

// Add accumulates another counter set into s.
func (s *SimStats) Add(o SimStats) {
	s.PlansCompiled += o.PlansCompiled
	s.Runs += o.Runs
	s.ScratchHits += o.ScratchHits
	s.ScratchMisses += o.ScratchMisses
	s.Batches += o.Batches
	s.Lanes += o.Lanes
	s.SequentialLanes += o.SequentialLanes
}

func (s SimStats) String() string {
	out := fmt.Sprintf("plans=%d runs=%d (%.1f runs/plan) scratch hits=%d misses=%d (%.1f%% pooled)",
		s.PlansCompiled, s.Runs, s.RunsPerPlan(),
		s.ScratchHits, s.ScratchMisses, 100*s.PoolHitRate())
	if s.Batches > 0 {
		out += fmt.Sprintf(" batches=%d lanes=%d (%.1f lanes/batch)",
			s.Batches, s.Lanes, s.LanesPerBatch())
	}
	if s.SequentialLanes > 0 {
		out += fmt.Sprintf(" sequential lanes=%d", s.SequentialLanes)
	}
	return out
}

// MaintStats counts how a derived structure (such as the scheduler's
// barrier dag) was kept up to date across mutations: patched in place or
// rebuilt from scratch, and how many memoized query rows each patch kept
// alive versus dropped.
type MaintStats struct {
	// Patches counts mutations applied incrementally.
	Patches uint64
	// Rebuilds counts mutations that fell back to a full rebuild.
	Rebuilds uint64
	// KeptRows counts memoized query rows that survived a patch, either
	// untouched or updated in place to their post-mutation value.
	KeptRows uint64
	// DroppedRows counts memoized query rows a patch invalidated.
	DroppedRows uint64
}

// PatchRate is Patches / (Patches + Rebuilds), or 0 with no mutations.
func (m MaintStats) PatchRate() float64 {
	if n := m.Patches + m.Rebuilds; n > 0 {
		return float64(m.Patches) / float64(n)
	}
	return 0
}

// Add accumulates another counter set into m (used when a patched
// structure is discarded and its lifetime counters are rolled up).
func (m *MaintStats) Add(o MaintStats) {
	m.Patches += o.Patches
	m.Rebuilds += o.Rebuilds
	m.KeptRows += o.KeptRows
	m.DroppedRows += o.DroppedRows
}

func (m MaintStats) String() string {
	return fmt.Sprintf("patches=%d rebuilds=%d (%.1f%% patched) rows kept=%d dropped=%d",
		m.Patches, m.Rebuilds, 100*m.PatchRate(), m.KeptRows, m.DroppedRows)
}

// StageClock accumulates wall-clock time per named pipeline stage
// (ordering, placement, merging, verification, ...), plus a fixed-bucket
// latency Histogram of the individual observations of each stage. The
// zero value is ready to use. After a stage's first observation the
// record path is two map lookups and a bucket increment — no allocation.
// StageClock is not safe for concurrent use; give each worker its own
// clock and Merge them.
type StageClock struct {
	names []string
	total map[string]time.Duration
	hist  map[string]*Histogram
}

// Observe adds d to the named stage's total and latency histogram.
func (s *StageClock) Observe(name string, d time.Duration) {
	if s.total == nil {
		s.total = make(map[string]time.Duration)
		s.hist = make(map[string]*Histogram)
	}
	h, ok := s.hist[name]
	if !ok {
		s.names = append(s.names, name)
		h = new(Histogram)
		s.hist[name] = h
	}
	s.total[name] += d
	h.Observe(d)
}

// Time runs fn and charges its wall time to the named stage.
func (s *StageClock) Time(name string, fn func()) {
	start := time.Now()
	fn()
	s.Observe(name, time.Since(start))
}

// Total returns the accumulated time of one stage.
func (s *StageClock) Total(name string) time.Duration {
	return s.total[name]
}

// Names returns the stage names in first-observation order.
func (s *StageClock) Names() []string { return s.names }

// Hist returns the latency histogram of one stage, or nil if the stage
// has never been observed. The returned histogram is live: later
// observations keep updating it.
func (s *StageClock) Hist(name string) *Histogram { return s.hist[name] }

// Merge accumulates another clock's stages — totals and histograms —
// into s.
func (s *StageClock) Merge(o *StageClock) {
	for _, name := range o.names {
		s.observeHist(name, o.total[name], o.hist[name])
	}
}

// observeHist merges one stage's foreign total and histogram. The total
// is added as-is; the histogram is bucket-merged rather than re-observed,
// preserving the distribution of the individual observations.
func (s *StageClock) observeHist(name string, d time.Duration, oh *Histogram) {
	if s.total == nil {
		s.total = make(map[string]time.Duration)
		s.hist = make(map[string]*Histogram)
	}
	h, ok := s.hist[name]
	if !ok {
		s.names = append(s.names, name)
		h = new(Histogram)
		s.hist[name] = h
	}
	s.total[name] += d
	if oh != nil {
		h.Add(oh)
	}
}

// Clone deep-copies the clock: the copy shares no state with s, so a
// snapshot taken for exposition cannot race with later observations.
func (s *StageClock) Clone() *StageClock {
	out := &StageClock{}
	out.Merge(s)
	return out
}

// String renders "stage=dur stage=dur ..." with stages sorted by
// descending time (ties by name) so the hottest stage leads.
func (s *StageClock) String() string {
	names := append([]string(nil), s.names...)
	sort.SliceStable(names, func(a, b int) bool {
		if s.total[names[a]] != s.total[names[b]] {
			return s.total[names[a]] > s.total[names[b]]
		}
		return names[a] < names[b]
	})
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%s", name, s.total[name].Round(time.Microsecond)))
	}
	return strings.Join(parts, " ")
}
