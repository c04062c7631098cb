package core

import (
	"bytes"
	"slices"
	"testing"

	"barriermimd/internal/bdag"
)

// TestIncrementalSchedulerMatchesRebuildOracle is the end-to-end
// differential test for incremental barrier-dag maintenance: across a
// table of synthetic workloads and option combinations, scheduling with
// incremental patching (and selfCheck auditing every patch against a
// from-scratch rebuild) must produce a byte-identical exported schedule to
// scheduling with forceRebuild, and both schedules' frozen barrier views
// must match a barrier dag rebuilt from their final timelines.
func TestIncrementalSchedulerMatchesRebuildOracle(t *testing.T) {
	cases := []struct {
		name      string
		stmts     int
		vars      int
		procs     int
		machine   MachineKind
		insertion Insertion
		seed      int64
		pathLimit int // 0 = option default; exercises the lazy enumerator cutoff
	}{
		{"sbm-conservative-small", 20, 4, 4, SBM, Conservative, 1, 0},
		{"sbm-conservative-wide", 45, 6, 8, SBM, Conservative, 2, 0},
		{"sbm-optimal", 40, 5, 8, SBM, Optimal, 3, 0},
		{"dbm-conservative", 40, 5, 8, DBM, Conservative, 4, 0},
		{"dbm-optimal", 35, 4, 6, DBM, Optimal, 5, 0},
		{"sbm-naive", 30, 4, 4, SBM, Naive, 6, 0},
		{"sbm-dense-vars", 60, 3, 8, SBM, Conservative, 7, 0},
		{"dbm-two-procs", 50, 6, 2, DBM, Conservative, 8, 0},
		// Explicit path limits: the lazy generator must agree with the
		// rebuild oracle whether it stops after one path or runs deep.
		{"sbm-optimal-k1", 40, 5, 8, SBM, Optimal, 9, 1},
		{"sbm-optimal-k2", 45, 4, 6, SBM, Optimal, 10, 2},
		{"dbm-optimal-k128", 55, 5, 8, DBM, Optimal, 11, 128},
		// Workload scale (the benchmark's largest blocks): 51 to 102
		// barrier nodes, so reachability rows cross a bitset word, and
		// every common-dominator row is patched many times over.
		{"dbm-200-p8", 200, 10, 8, DBM, Conservative, 12, 0},
		{"dbm-200-p16", 200, 10, 16, DBM, Conservative, 14, 0},
		{"sbm-200-p4", 200, 10, 4, SBM, Conservative, 27, 0},
		{"dbm-200-p16-optimal", 200, 10, 16, DBM, Optimal, 16, 0},
		// The extremes of the synth range the view check sweeps: one
		// statement on two processors, 250 statements on 32.
		{"sbm-1-p2", 1, 2, 2, SBM, Conservative, 17, 0},
		{"dbm-1-p2-optimal", 1, 2, 2, DBM, Optimal, 18, 0},
		{"sbm-250-p32", 250, 12, 32, SBM, Conservative, 19, 0},
		{"sbm-150-p32-optimal", 150, 12, 32, SBM, Optimal, 23, 0},
		{"dbm-250-p32", 250, 12, 32, DBM, Conservative, 21, 0},
		{"dbm-250-p32-optimal", 250, 12, 32, DBM, Optimal, 22, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			g := synthGraph(t, tc.stmts, tc.vars, tc.seed)
			opts := DefaultOptions(tc.procs)
			opts.Machine = tc.machine
			opts.Insertion = tc.insertion
			opts.Seed = tc.seed
			if tc.pathLimit != 0 {
				opts.PathLimit = tc.pathLimit
			}

			inc := opts
			inc.selfCheck = true
			si, err := ScheduleDAG(g, inc)
			if err != nil {
				t.Fatalf("incremental: %v", err)
			}

			reb := opts
			reb.forceRebuild = true
			sr, err := ScheduleDAG(g, reb)
			if err != nil {
				t.Fatalf("rebuild oracle: %v", err)
			}

			ji, err := si.ExportJSON()
			if err != nil {
				t.Fatal(err)
			}
			jr, err := sr.ExportJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ji, jr) {
				t.Fatalf("incremental schedule differs from rebuild oracle\nincremental:\n%s\nrebuild:\n%s", ji, jr)
			}
			checkViewMatchesRebuild(t, si)
			checkViewMatchesRebuild(t, sr)

			if si.Metrics.Barriers > 0 && si.Metrics.Maint.Patches == 0 {
				t.Error("barriers were inserted but no incremental patches recorded")
			}
			if sr.Metrics.Maint.Patches != 0 {
				t.Errorf("rebuild oracle recorded %d patches", sr.Metrics.Maint.Patches)
			}
		})
	}
}

// checkViewMatchesRebuild is the differential check of a schedule's
// frozen barrier view: fire windows, successor lists, edges and edge
// timings must equal those of a barrier dag rebuilt from the final
// timelines, read through the rebuild's id table, and a merged-away id
// must have no successors.
func checkViewMatchesRebuild(t *testing.T, s *Schedule) {
	t.Helper()
	bg, bnode, err := buildBarrierGraphDense(s.Procs, s.Participants, s.Graph.Time)
	if err != nil {
		t.Fatal(err)
	}
	node2id := make([]int, bg.Len())
	for id, n := range bnode {
		if n >= 0 {
			node2id[n] = id
		}
	}
	wmin, wmax, err := bg.FireWindows()
	if err != nil {
		t.Fatal(err)
	}
	gmin, gmax := s.Barriers.FireWindows()
	for id, n := range bnode {
		if n < 0 {
			if succs := s.Barriers.Succs(id); len(succs) != 0 {
				t.Errorf("merged-away b%d has successors %v", id, succs)
			}
			continue
		}
		if gmin[id] != wmin[n] || gmax[id] != wmax[n] {
			t.Errorf("b%d fires in [%d,%d], rebuild says [%d,%d]", id, gmin[id], gmax[id], wmin[n], wmax[n])
		}
		var want []int
		for _, w := range bg.Succs(n) {
			want = append(want, node2id[w])
			wt, _ := bg.EdgeTiming(n, w)
			if gt, ok := s.Barriers.EdgeTiming(id, node2id[w]); !ok || gt != wt {
				t.Errorf("edge b%d->b%d timing %v (present %v), rebuild says %v", id, node2id[w], gt, ok, wt)
			}
		}
		if got := s.Barriers.Succs(id); !slices.Equal(got, want) {
			t.Errorf("b%d successors %v, rebuild says %v", id, got, want)
		}
	}
	var want []bdag.Edge
	for _, e := range bg.Edges() {
		want = append(want, bdag.Edge{From: node2id[e.From], To: node2id[e.To]})
	}
	if got := s.Barriers.Edges(); !slices.Equal(got, want) {
		t.Errorf("edges %v, rebuild says %v", got, want)
	}
}

// TestIncrementalSelfCheckRandomized drives selfCheck-audited runs across
// many random seeds; every barrier insertion audits the patched dag, the
// barrier-id map, and the per-processor timeline state against fresh
// rebuilds, so any divergence fails the schedule.
func TestIncrementalSelfCheckRandomized(t *testing.T) {
	type block struct {
		stmts, vars, procs int
		seed               int64
		machine            MachineKind
		insertion          Insertion
	}
	var blocks []block
	for seed := int64(0); seed < 25; seed++ {
		b := block{10 + int(seed%5)*12, 3 + int(seed%6), 2 + int(seed%4)*2, seed, SBM, Conservative}
		if seed%2 == 0 {
			b.machine = DBM
		}
		if seed%3 == 0 {
			b.insertion = Optimal
		}
		blocks = append(blocks, b)
	}
	// A placement rolled back here leaves the barrier dag dirty; the next
	// attempt must rebuild it before registering its own barrier id, or
	// the rebuild adds that unplaced id as an isolated node.
	blocks = append(blocks, block{250, 12, 32, 12, SBM, Conservative})

	for _, b := range blocks {
		g := synthGraph(t, b.stmts, b.vars, b.seed)
		opts := DefaultOptions(b.procs)
		opts.Seed = b.seed
		opts.Machine = b.machine
		opts.Insertion = b.insertion
		opts.selfCheck = true
		s, err := ScheduleDAG(g, opts)
		if err != nil {
			t.Fatalf("%+v: %v", b, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%+v: %v", b, err)
		}
		checkViewMatchesRebuild(t, s)
	}
}

// TestMaintPatchRateDominates checks the perf invariant behind this
// machinery: in a normal run, barrier insertions should overwhelmingly be
// patched in place, with rebuilds reserved for merges and rollbacks.
func TestMaintPatchRateDominates(t *testing.T) {
	g := synthGraph(t, 60, 5, 11)
	opts := DefaultOptions(8)
	opts.Seed = 11
	s, err := ScheduleDAG(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Metrics.Maint
	if m.Patches == 0 {
		t.Fatalf("no patches: %+v", m)
	}
	t.Logf("maint: %v", m)
	if m.KeptRows == 0 {
		t.Error("incremental maintenance never kept a memo row")
	}
}

// TestForceRebuildOptionValidates makes sure both maintenance modes are
// reachable through options validation.
func TestForceRebuildOptionValidates(t *testing.T) {
	for _, force := range []bool{false, true} {
		o := DefaultOptions(4)
		o.forceRebuild = force
		o.selfCheck = !force
		if err := o.Validate(); err != nil {
			t.Fatalf("forceRebuild=%v: %v", force, err)
		}
	}
}
