package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"barriermimd/internal/dag"
	"barriermimd/internal/obsv"
)

// batchGraphs builds a mixed population of synthetic DAGs.
func batchGraphs(t *testing.T, n int) []*dag.Graph {
	t.Helper()
	gs := make([]*dag.Graph, n)
	for i := range gs {
		gs[i] = synthGraph(t, 20+5*(i%5), 4+i%6, int64(100+i))
	}
	return gs
}

// TestScheduleBatchDeterministicAcrossParallelism is the regression test
// for the batch engine's core guarantee: scheduling the same DAGs with
// Parallelism=1 and Parallelism=N yields byte-identical exported
// schedules.
func TestScheduleBatchDeterministicAcrossParallelism(t *testing.T) {
	gs := batchGraphs(t, 12)
	opts := DefaultOptions(8)
	opts.Seed = 7

	export := func(parallelism int) [][]byte {
		opts := opts
		opts.Parallelism = parallelism
		scheds, errs, err := ScheduleBatch(gs, opts)
		if err != nil {
			t.Fatalf("Parallelism=%d: %v", parallelism, err)
		}
		out := make([][]byte, len(scheds))
		for i, s := range scheds {
			if errs[i] != nil {
				t.Fatalf("Parallelism=%d item %d: %v", parallelism, i, errs[i])
			}
			raw, err := s.ExportJSON()
			if err != nil {
				t.Fatalf("Parallelism=%d item %d: %v", parallelism, i, err)
			}
			out[i] = raw
		}
		return out
	}

	serial := export(1)
	for _, par := range []int{2, 4, 8} {
		parallel := export(par)
		for i := range serial {
			if !bytes.Equal(serial[i], parallel[i]) {
				t.Fatalf("Parallelism=%d: exported schedule %d differs from serial run\nserial:\n%s\nparallel:\n%s",
					par, i, serial[i], parallel[i])
			}
		}
	}
}

func TestScheduleBatchSeedsDiffer(t *testing.T) {
	// A batch of the *same* DAG must still explore seed-diverse
	// schedules: item i runs with Seed+i.
	g := synthGraph(t, 40, 8, 3)
	scheds, errs, err := ScheduleBatch([]*dag.Graph{g, g}, DefaultOptions(8))
	if err != nil || errs[0] != nil || errs[1] != nil {
		t.Fatal(err, errs)
	}
	if got, want := scheds[0].Opts.Seed, int64(0); got != want {
		t.Errorf("item 0 seed = %d, want %d", got, want)
	}
	if got, want := scheds[1].Opts.Seed, int64(1); got != want {
		t.Errorf("item 1 seed = %d, want %d", got, want)
	}
}

func TestScheduleBatchPropagatesErrors(t *testing.T) {
	if _, _, err := ScheduleBatch(nil, Options{Processors: 0}); err == nil {
		t.Error("invalid options not rejected")
	}
	opts := DefaultOptions(8)
	opts.Parallelism = -1
	if _, _, err := ScheduleBatch(nil, opts); err == nil {
		t.Error("negative Parallelism not rejected")
	}
}

func exportJSON(t *testing.T, s *Schedule) []byte {
	t.Helper()
	raw, err := s.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// errPoisoned is the failure failingCache injects.
var errPoisoned = errors.New("poisoned graph")

// failingCache is a ScheduleCache that fails one graph and schedules every
// other one fresh. Like a real cache it records a miss before computing,
// so a failed item still leaves an event in its trace ring.
type failingCache struct{ bad *dag.Graph }

func (c failingCache) Schedule(g *dag.Graph, opts Options) (*Schedule, error) {
	if g == c.bad {
		if opts.Recorder != nil {
			opts.Recorder.Record(obsv.Event{Kind: obsv.KindSchedCacheMiss, Arg0: -1})
		}
		return nil, errPoisoned
	}
	return ScheduleDAG(g, opts)
}

// TestScheduleBatchReportsItemErrors: one failing item must not abort its
// batch. Every other item is scheduled exactly as without the failure,
// the error is reported at its own index at every Parallelism value, and
// the failed item's trace ring is replayed in index order.
func TestScheduleBatchReportsItemErrors(t *testing.T) {
	gs := batchGraphs(t, 5)
	want, wantErrs, err := ScheduleBatch(gs, DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range wantErrs {
		if e != nil {
			t.Fatalf("uncached item %d: %v", i, e)
		}
	}
	var trace0 []byte
	for _, par := range []int{1, 2, 4} {
		opts := DefaultOptions(4)
		opts.Parallelism = par
		opts.Cache = failingCache{bad: gs[2]}
		ring := obsv.NewRing(1 << 16)
		opts.Recorder = ring
		out, errs, err := ScheduleBatch(gs, opts)
		if err != nil {
			t.Fatalf("Parallelism=%d: batch error %v, want per-item errors only", par, err)
		}
		for i := range gs {
			if i == 2 {
				if !errors.Is(errs[i], errPoisoned) || out[i] != nil {
					t.Fatalf("Parallelism=%d item 2: (%v, %v), want (nil, %v)", par, out[i], errs[i], errPoisoned)
				}
				continue
			}
			if errs[i] != nil {
				t.Fatalf("Parallelism=%d item %d: %v", par, i, errs[i])
			}
			if !bytes.Equal(exportJSON(t, out[i]), exportJSON(t, want[i])) {
				t.Fatalf("Parallelism=%d item %d differs from the batch without a failure", par, i)
			}
		}
		// Items 0 and 1 finish before the failed item's marker, items 3
		// and 4 after it.
		done, marker := 0, -1
		for _, ev := range ring.Events() {
			switch {
			case ev.Kind == obsv.KindSchedDone:
				done++
			case ev.Kind == obsv.KindSchedCacheMiss && ev.Arg0 == -1:
				marker = done
			}
		}
		if marker != 2 || done != 4 {
			t.Fatalf("Parallelism=%d: failed item's marker after %d of %d sched-done events, want after 2 of 4", par, marker, done)
		}
		tr := traceJSONL(t, ring)
		if trace0 == nil {
			trace0 = tr
		} else if !bytes.Equal(tr, trace0) {
			t.Fatalf("Parallelism=%d changed the batch trace", par)
		}
	}
}

func TestBatchMetricsAggregates(t *testing.T) {
	gs := batchGraphs(t, 4)
	scheds, _, err := ScheduleBatch(gs, DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	total := BatchMetrics(scheds)
	var wantSyncs, wantBarriers int
	for _, s := range scheds {
		wantSyncs += s.Metrics.TotalImpliedSyncs
		wantBarriers += s.Metrics.Barriers
	}
	if total.TotalImpliedSyncs != wantSyncs {
		t.Errorf("TotalImpliedSyncs = %d, want %d", total.TotalImpliedSyncs, wantSyncs)
	}
	if total.Barriers != wantBarriers {
		t.Errorf("Barriers = %d, want %d", total.Barriers, wantBarriers)
	}
	if total.PathCache.Lookups() == 0 {
		t.Error("PathCache counters did not accumulate")
	}
	if total.Stages == nil || total.Stages.Total("place") == 0 {
		t.Error("stage clocks did not merge")
	}
}

func TestScheduleMetricsIncludeCacheAndStages(t *testing.T) {
	g := synthGraph(t, 40, 8, 1)
	s, err := ScheduleDAG(g, DefaultOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	m := s.Metrics
	if m.PathCache.Lookups() == 0 {
		t.Error("PathCache: no lookups recorded")
	}
	if m.PathCache.HitRate() <= 0 {
		t.Errorf("PathCache hit rate = %v, want > 0 (stats: %v)", m.PathCache.HitRate(), m.PathCache)
	}
	if m.Stages == nil {
		t.Fatal("Stages clock missing")
	}
	for _, stage := range []string{"order", "place", "finalize"} {
		found := false
		for _, name := range m.Stages.Names() {
			if name == stage {
				found = true
			}
		}
		if !found {
			t.Errorf("stage %q not recorded (have %v)", stage, m.Stages.Names())
		}
	}
	if testing.Verbose() {
		fmt.Printf("cache: %v\nstages: %v\n", m.PathCache, m.Stages)
	}
}
