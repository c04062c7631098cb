package core

import (
	"bytes"
	"testing"

	"barriermimd/internal/obsv"
)

// traceJSONL renders a ring's stream for byte comparison.
func traceJSONL(t *testing.T, r *obsv.Ring) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obsv.WriteJSONL(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestScheduleTraceEvents checks that a traced SBM run emits a coherent
// event stream: one barrier-insert per surviving or merged barrier, a
// final sched-done whose counters match the returned Metrics, and ticks
// that never exceed the node count.
func TestScheduleTraceEvents(t *testing.T) {
	g := synthGraph(t, 50, 8, 3)
	opts := DefaultOptions(8)
	opts.Seed = 3
	ring := obsv.NewRing(1 << 14)
	opts.Recorder = ring

	s, err := ScheduleDAG(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ring.Dropped() != 0 {
		t.Fatalf("ring dropped %d events", ring.Dropped())
	}

	counts := map[obsv.Kind]int{}
	var done obsv.Event
	ring.Do(func(ev obsv.Event) {
		counts[ev.Kind]++
		if ev.Kind == obsv.KindSchedDone {
			done = ev
		}
		if !ev.Kind.Simulator() && (ev.Tick < 0 || ev.Tick > int64(g.N)) {
			t.Errorf("scheduler event tick %d outside [0,%d]: %v", ev.Tick, g.N, ev)
		}
	})
	if counts[obsv.KindSchedDone] != 1 {
		t.Fatalf("sched-done emitted %d times", counts[obsv.KindSchedDone])
	}
	m := s.Metrics
	if done.Arg0 != int64(m.Barriers) || done.Arg1 != int64(m.MergedBarriers) || done.Arg2 != int64(m.RepairedPairs) {
		t.Errorf("sched-done args %d/%d/%d, metrics %d/%d/%d",
			done.Arg0, done.Arg1, done.Arg2, m.Barriers, m.MergedBarriers, m.RepairedPairs)
	}
	// Every committed insertion appears; merges fold some away again.
	if inserts := counts[obsv.KindBarrierInsert]; inserts != m.Barriers+m.MergedBarriers {
		t.Errorf("%d barrier-insert events, want barriers(%d)+merged(%d)",
			inserts, m.Barriers, m.MergedBarriers)
	}
	if counts[obsv.KindBarrierMerge] != m.MergedBarriers {
		t.Errorf("%d merge events, metrics say %d", counts[obsv.KindBarrierMerge], m.MergedBarriers)
	}
	if counts[obsv.KindCacheStats] == 0 {
		t.Error("no cache-stats events")
	}
	// The incremental default patches on the hot path.
	if counts[obsv.KindGraphPatch] == 0 {
		t.Error("no graph-patch events on the incremental path")
	}
}

// TestScheduleTraceDeterministic pins the fixed-seed determinism rule:
// the stream carries no wall-clock data, so two runs are byte-identical.
func TestScheduleTraceDeterministic(t *testing.T) {
	g := synthGraph(t, 60, 10, 7)
	var streams [][]byte
	for i := 0; i < 2; i++ {
		opts := DefaultOptions(8)
		opts.Seed = 7
		ring := obsv.NewRing(1 << 14)
		opts.Recorder = ring
		if _, err := ScheduleDAG(g, opts); err != nil {
			t.Fatal(err)
		}
		streams = append(streams, traceJSONL(t, ring))
	}
	if !bytes.Equal(streams[0], streams[1]) {
		t.Error("two identical runs produced different trace streams")
	}
}

// TestForceRebuildTraceHasNoPatches checks the ablation's event shape:
// with forceRebuild every insertion shows up as a rebuild, never a patch.
func TestForceRebuildTraceHasNoPatches(t *testing.T) {
	g := synthGraph(t, 40, 8, 5)
	opts := DefaultOptions(8)
	opts.Seed = 5
	opts.forceRebuild = true
	ring := obsv.NewRing(1 << 14)
	opts.Recorder = ring
	if _, err := ScheduleDAG(g, opts); err != nil {
		t.Fatal(err)
	}
	patches, rebuilds := 0, 0
	ring.Do(func(ev obsv.Event) {
		switch ev.Kind {
		case obsv.KindGraphPatch:
			patches++
		case obsv.KindGraphRebuild:
			rebuilds++
		}
	})
	if patches != 0 {
		t.Errorf("%d graph-patch events under forceRebuild", patches)
	}
	if rebuilds == 0 {
		t.Error("no graph-rebuild events under forceRebuild")
	}
}

// TestRecorderDoesNotChangeSchedule pins zero observational interference:
// tracing a run must not alter its output.
func TestRecorderDoesNotChangeSchedule(t *testing.T) {
	g := synthGraph(t, 50, 8, 11)
	opts := DefaultOptions(8)
	opts.Seed = 11
	plain, err := ScheduleDAG(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Recorder = obsv.NewRing(1 << 14)
	traced, err := ScheduleDAG(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := plain.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := traced.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("recording changed the schedule")
	}
}

// TestBatchTraceDeterministicAcrossWorkers is the tentpole determinism
// guarantee: the merged batch stream is byte-identical for every
// Parallelism value because per-item rings are replayed in item order.
func TestBatchTraceDeterministicAcrossWorkers(t *testing.T) {
	gs := batchGraphs(t, 12)
	var want []byte
	for _, workers := range []int{1, 2, 4, 8} {
		opts := DefaultOptions(8)
		opts.Seed = 42
		opts.Parallelism = workers
		ring := obsv.NewRing(1 << 16)
		opts.Recorder = ring
		scheds, _, err := ScheduleBatch(gs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(scheds) != len(gs) {
			t.Fatalf("workers=%d: %d schedules", workers, len(scheds))
		}
		got := traceJSONL(t, ring)
		if want == nil {
			want = got
			if ring.Len() == 0 {
				t.Fatal("batch recorded no events")
			}
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("workers=%d: batch trace differs from workers=1", workers)
		}
	}
}
