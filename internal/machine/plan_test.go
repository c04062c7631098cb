package machine

import (
	"sync"
	"testing"

	"barriermimd/internal/core"
)

// sameResult asserts the compiled-plan result is byte-identical to the
// legacy oracle result: completion time, every per-node interval, the
// firing sequence, and every barrier's firing time.
func sameResult(t *testing.T, tag string, want, got *Result) {
	t.Helper()
	if got.FinishTime != want.FinishTime {
		t.Fatalf("%s: finish %d, oracle %d", tag, got.FinishTime, want.FinishTime)
	}
	for n := range want.Start {
		if got.Start[n] != want.Start[n] || got.Finish[n] != want.Finish[n] {
			t.Fatalf("%s: node %d interval [%d,%d], oracle [%d,%d]",
				tag, n, got.Start[n], got.Finish[n], want.Start[n], want.Finish[n])
		}
	}
	if len(got.FireOrder) != len(want.FireOrder) {
		t.Fatalf("%s: fired %d barriers, oracle %d", tag, len(got.FireOrder), len(want.FireOrder))
	}
	for k := range want.FireOrder {
		if got.FireOrder[k] != want.FireOrder[k] {
			t.Fatalf("%s: fire order %v, oracle %v", tag, got.FireOrder, want.FireOrder)
		}
	}
	wm, gm := want.FireTimes(), got.FireTimes()
	if len(wm) != len(gm) {
		t.Fatalf("%s: %d fire times, oracle %d", tag, len(gm), len(wm))
	}
	for id, wt := range wm {
		if gt, ok := got.FireTimeOf(id); !ok || gt != wt {
			t.Fatalf("%s: barrier %d fired at %d (ok=%v), oracle %d", tag, id, gt, ok, wt)
		}
	}
}

// TestPlanMatchesLegacyOracle is the tentpole regression: across machine
// kinds × timing policies × seeds (and a nonzero barrier cost), Plan.Run
// must reproduce the legacy per-run simulator exactly.
func TestPlanMatchesLegacyOracle(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		s := schedule(t, 45, 10, 6, seed, core.SBM)
		for _, kind := range []core.MachineKind{core.SBM, core.DBM} {
			plan, err := Compile(s, kind)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, kind, err)
			}
			for _, cfg := range []Config{
				{Policy: MinTimes},
				{Policy: MaxTimes},
				{Policy: RandomTimes, Seed: seed*31 + 1},
				{Policy: RandomTimes, Seed: seed*31 + 2, BarrierCost: 3},
			} {
				want, err := RunAs(s, kind, cfg)
				if err != nil {
					t.Fatalf("seed %d %v: oracle: %v", seed, kind, err)
				}
				got, err := plan.Run(cfg)
				if err != nil {
					t.Fatalf("seed %d %v: plan: %v", seed, kind, err)
				}
				sameResult(t, kind.String(), want, got)
				got.Release()
			}
		}
	}
}

// TestPlanResultReleaseRecycles checks that a released result's scratch is
// reused and fully reinitialized: two runs with the same seed through one
// recycled scratch produce identical results.
func TestPlanResultReleaseRecycles(t *testing.T) {
	s := schedule(t, 40, 10, 6, 3, core.SBM)
	plan, err := Compile(s, core.SBM)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Policy: RandomTimes, Seed: 7}
	want, err := RunAs(s, core.SBM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the scratch with a different execution first, then rerun.
	r1, err := plan.Run(Config{Policy: MaxTimes, BarrierCost: 9})
	if err != nil {
		t.Fatal(err)
	}
	r1.Release()
	r2, err := plan.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "recycled", want, r2)
	r2.Release()
}

// idsOf translates dense barrier indices to schedule-level ids.
func (p *Plan) idsOf(dense []int32) []int {
	out := make([]int, len(dense))
	for i, d := range dense {
		out[i] = p.barIDs[d]
	}
	return out
}

// TestPlanQueueMatchesQueueOrder pins the dense queue construction to the
// map-based QueueOrder reference.
func TestPlanQueueMatchesQueueOrder(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		s := schedule(t, 60, 10, 8, seed, core.SBM)
		plan, err := Compile(s, core.SBM)
		if err != nil {
			t.Fatal(err)
		}
		want, err := QueueOrder(s)
		if err != nil {
			t.Fatal(err)
		}
		got := plan.idsOf(plan.queue)
		if len(got) != len(want) {
			t.Fatalf("seed %d: queue length %d, want %d", seed, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("seed %d: queue %v, want %v", seed, got, want)
			}
		}
	}
}

// TestPlanRunAllocs pins the warm simulate path: once the plan is compiled
// and the scratch pool is warm, a run-and-release cycle must not allocate
// at all, for either machine kind or any policy.
func TestPlanRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; pin only holds without -race")
	}
	s := schedule(t, 50, 10, 8, 5, core.SBM)
	for _, kind := range []core.MachineKind{core.SBM, core.DBM} {
		plan, err := Compile(s, kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{
			{Policy: RandomTimes, Seed: 11},
			{Policy: MinTimes},
			{Policy: MaxTimes, BarrierCost: 2},
		} {
			// Warm the pool.
			for i := 0; i < 3; i++ {
				r, err := plan.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				r.Release()
			}
			allocs := testing.AllocsPerRun(100, func() {
				r, err := plan.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				r.Release()
			})
			if allocs != 0 {
				t.Errorf("%v %v: warm Plan.Run allocates %.1f per run, want 0", kind, cfg.Policy, allocs)
			}
		}
	}
}

// TestConcurrentPlanRuns shares one immutable plan across goroutines under
// -race: every goroutine sweeps its own seeds and checks each result
// against the legacy oracle.
func TestConcurrentPlanRuns(t *testing.T) {
	s := schedule(t, 40, 10, 6, 9, core.SBM)
	for _, kind := range []core.MachineKind{core.SBM, core.DBM} {
		plan, err := Compile(s, kind)
		if err != nil {
			t.Fatal(err)
		}
		const goroutines, runs = 8, 20
		// Precompute oracle finish times serially.
		want := make([][]int, goroutines)
		for g := range want {
			want[g] = make([]int, runs)
			for i := range want[g] {
				r, err := RunAs(s, kind, Config{Policy: RandomTimes, Seed: int64(g*runs + i)})
				if err != nil {
					t.Fatal(err)
				}
				want[g][i] = r.FinishTime
			}
		}
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < runs; i++ {
					r, err := plan.Run(Config{Policy: RandomTimes, Seed: int64(g*runs + i)})
					if err != nil {
						errs <- err
						return
					}
					if r.FinishTime != want[g][i] {
						t.Errorf("%v: goroutine %d run %d: finish %d, oracle %d",
							kind, g, i, r.FinishTime, want[g][i])
					}
					r.Release()
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// TestPlanAccessors covers the small introspection surface.
func TestPlanAccessors(t *testing.T) {
	s := schedule(t, 30, 8, 4, 2, core.SBM)
	plan, err := Compile(s, core.DBM)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Schedule() != s {
		t.Error("Schedule accessor lost the schedule")
	}
	if plan.Kind() != core.DBM {
		t.Errorf("Kind = %v, want DBM", plan.Kind())
	}
	if plan.NumBarriers() != s.NumBarriers()+1 {
		t.Errorf("NumBarriers = %d, want %d (live barriers + initial)",
			plan.NumBarriers(), s.NumBarriers()+1)
	}
	r, err := plan.Run(Config{Policy: MinTimes})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.FireTimeOf(-42); ok {
		t.Error("FireTimeOf accepted a bogus barrier id")
	}
	if ft, ok := r.FireTimeOf(core.InitialBarrier); !ok || ft != 0 {
		t.Errorf("initial barrier fire time = %d (ok=%v), want 0", ft, ok)
	}
	r.Release()
}

// TestCompileRejectsCorruptSchedule: Compile validates once so runs don't
// have to; a schedule whose waits were tampered with must fail to compile.
func TestCompileRejectsCorruptSchedule(t *testing.T) {
	s := schedule(t, 30, 8, 4, 6, core.SBM)
	if s.NumBarriers() == 0 {
		t.Skip("no barriers")
	}
	for p := range s.Procs {
		for k, it := range s.Procs[p] {
			if it.IsBarrier {
				s.Procs[p] = append(s.Procs[p][:k], s.Procs[p][k+1:]...)
				if _, err := Compile(s, core.SBM); err == nil {
					t.Fatal("Compile accepted a corrupted schedule")
				}
				return
			}
		}
	}
}

// TestCalendar exercises the d-ary ready heap directly: pops must come out
// in ascending dense-index order regardless of push order.
func TestCalendar(t *testing.T) {
	c := newCalendar(8)
	if !c.empty() {
		t.Fatal("new calendar not empty")
	}
	for _, d := range []int32{5, 1, 7, 3, 0, 6, 2, 4} {
		c.push(d)
	}
	for want := int32(0); want < 8; want++ {
		got, ok := c.pop()
		if !ok || got != want {
			t.Fatalf("pop = %d (ok=%v), want %d", got, ok, want)
		}
	}
	if _, ok := c.pop(); ok {
		t.Fatal("pop from empty calendar succeeded")
	}
	c.reset()
	if !c.empty() {
		t.Fatal("reset calendar not empty")
	}
}

// TestSimStatsCount checks the package counters move with compiles and
// runs and that the pool hit rate climbs on a warm plan.
func TestSimStatsCount(t *testing.T) {
	s := schedule(t, 30, 8, 4, 4, core.SBM)
	before := Stats()
	plan, err := Compile(s, core.SBM)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		r, err := plan.Run(Config{Policy: RandomTimes, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}
	after := Stats()
	if after.PlansCompiled != before.PlansCompiled+1 {
		t.Errorf("plans compiled %d → %d, want +1", before.PlansCompiled, after.PlansCompiled)
	}
	if after.Runs != before.Runs+10 {
		t.Errorf("runs %d → %d, want +10", before.Runs, after.Runs)
	}
	if after.Batches != before.Batches || after.Lanes != before.Lanes {
		t.Errorf("batches/lanes %d/%d → %d/%d, want unchanged by Plan.Run",
			before.Batches, before.Lanes, after.Batches, after.Lanes)
	}
	// The race runtime drops pool items on purpose to widen race windows,
	// so only require a warm pool in non-race builds.
	if hits := after.ScratchHits - before.ScratchHits; !raceEnabled && hits < 8 {
		t.Errorf("scratch hits = %d over 10 sequential run/release cycles, want >= 8", hits)
	}
}
