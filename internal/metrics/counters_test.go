package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestCacheStats(t *testing.T) {
	var c CacheStats
	if c.HitRate() != 0 {
		t.Errorf("empty HitRate = %v, want 0", c.HitRate())
	}
	c.Hits, c.Misses = 3, 1
	if got := c.HitRate(); got != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", got)
	}
	if got := c.Lookups(); got != 4 {
		t.Errorf("Lookups = %d, want 4", got)
	}
	c.Add(CacheStats{Hits: 1, Misses: 3})
	if c.Hits != 4 || c.Misses != 4 {
		t.Errorf("after Add: %+v, want 4/4", c)
	}
	if s := c.String(); !strings.Contains(s, "rate=50.0%") {
		t.Errorf("String = %q, want rate=50.0%%", s)
	}
}

func TestSimStats(t *testing.T) {
	var s SimStats
	if s.RunsPerPlan() != 0 || s.PoolHitRate() != 0 {
		t.Errorf("empty ratios = %v, %v, want 0, 0", s.RunsPerPlan(), s.PoolHitRate())
	}
	s = SimStats{PlansCompiled: 2, Runs: 10, ScratchHits: 9, ScratchMisses: 3}
	if got := s.RunsPerPlan(); got != 5 {
		t.Errorf("RunsPerPlan = %v, want 5", got)
	}
	if got := s.PoolHitRate(); got != 0.75 {
		t.Errorf("PoolHitRate = %v, want 0.75", got)
	}
	if str := s.String(); strings.Contains(str, "sequential") {
		t.Errorf("String = %q, want no sequential-lane count while it is 0", str)
	}
	s.Add(SimStats{PlansCompiled: 1, Runs: 5, ScratchHits: 1, ScratchMisses: 1, SequentialLanes: 2})
	if s.PlansCompiled != 3 || s.Runs != 15 || s.ScratchHits != 10 || s.ScratchMisses != 4 || s.SequentialLanes != 2 {
		t.Errorf("after Add: %+v", s)
	}
	str := s.String()
	for _, want := range []string{"plans=3", "runs=15", "(5.0 runs/plan)", "hits=10", "misses=4", "sequential lanes=2"} {
		if !strings.Contains(str, want) {
			t.Errorf("String = %q, missing %q", str, want)
		}
	}
}

func TestStageClock(t *testing.T) {
	var sc StageClock
	sc.Observe("order", 2*time.Millisecond)
	sc.Observe("place", 5*time.Millisecond)
	sc.Observe("order", 1*time.Millisecond)
	if got := sc.Total("order"); got != 3*time.Millisecond {
		t.Errorf("Total(order) = %v, want 3ms", got)
	}
	if got := sc.Names(); len(got) != 2 || got[0] != "order" || got[1] != "place" {
		t.Errorf("Names = %v, want [order place]", got)
	}
	sc.Time("verify", func() {})
	var other StageClock
	other.Observe("place", 5*time.Millisecond)
	sc.Merge(&other)
	if got := sc.Total("place"); got != 10*time.Millisecond {
		t.Errorf("after Merge Total(place) = %v, want 10ms", got)
	}
	s := sc.String()
	if !strings.HasPrefix(s, "place=") {
		t.Errorf("String should lead with hottest stage: %q", s)
	}
	if !strings.Contains(s, "verify=") {
		t.Errorf("String missing verify stage: %q", s)
	}
}
