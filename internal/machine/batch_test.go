package machine

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"barriermimd/internal/core"
	"barriermimd/internal/obsv"
)

// sameLane asserts lane l of a BatchResult is field-for-field identical
// to the scalar result for the lane's seed: per-node intervals, finish
// time, fire order, and every barrier's firing time.
func sameLane(t *testing.T, tag string, want *Result, br *BatchResult, l int) {
	t.Helper()
	if got := br.FinishTimeOf(l); got != want.FinishTime {
		t.Fatalf("%s lane %d: finish %d, scalar %d", tag, l, got, want.FinishTime)
	}
	for n := range want.Start {
		if br.StartOf(l, n) != want.Start[n] || br.FinishOf(l, n) != want.Finish[n] {
			t.Fatalf("%s lane %d: node %d interval [%d,%d], scalar [%d,%d]",
				tag, l, n, br.StartOf(l, n), br.FinishOf(l, n), want.Start[n], want.Finish[n])
		}
	}
	if len(br.FireOrder) != len(want.FireOrder) {
		t.Fatalf("%s lane %d: fired %d barriers, scalar %d", tag, l, len(br.FireOrder), len(want.FireOrder))
	}
	for k := range want.FireOrder {
		if br.FireOrder[k] != want.FireOrder[k] {
			t.Fatalf("%s lane %d: fire order %v, scalar %v", tag, l, br.FireOrder, want.FireOrder)
		}
	}
	for id, wt := range want.FireTimes() {
		if gt, ok := br.FireTimeOf(l, id); !ok || gt != wt {
			t.Fatalf("%s lane %d: barrier %d fired at %d (ok=%v), scalar %d", tag, l, id, gt, ok, wt)
		}
	}
}

// batchSeeds builds a seed set that covers the RNG edge cases (zero,
// negative, ≥2³¹−1) alongside a spread of ordinary values.
func batchSeeds(n int) []int64 {
	seeds := make([]int64, n)
	edge := []int64{0, -1, int31max, int31max + 1, -(1 << 40)}
	copy(seeds, edge)
	for i := len(edge); i < n; i++ {
		seeds[i] = int64(i)*7919 + 3
	}
	return seeds
}

// TestRunManyMatchesScalar is the tentpole contract: across machine
// kinds × timing policies × barrier costs, every lane of RunMany must be
// byte-identical to a scalar Plan.Run with that lane's seed.
func TestRunManyMatchesScalar(t *testing.T) {
	seeds := batchSeeds(17) // odd width exercises uneven chunk splits
	s := schedule(t, 45, 10, 6, 2, core.SBM)
	for _, kind := range []core.MachineKind{core.SBM, core.DBM} {
		plan, err := Compile(s, kind)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for _, cfg := range []Config{
			{Policy: MinTimes},
			{Policy: MaxTimes, BarrierCost: 2},
			{Policy: RandomTimes},
			{Policy: RandomTimes, BarrierCost: 1},
			{Policy: RandomTimes, BarrierCost: 3},
		} {
			br, err := plan.RunMany(cfg, seeds)
			if err != nil {
				t.Fatalf("%v %v: RunMany: %v", kind, cfg.Policy, err)
			}
			if br.Lanes != len(seeds) {
				t.Fatalf("%v: Lanes = %d, want %d", kind, br.Lanes, len(seeds))
			}
			for l, seed := range seeds {
				scfg := cfg
				scfg.Seed = seed
				want, err := plan.Run(scfg)
				if err != nil {
					t.Fatalf("%v %v seed %d: scalar: %v", kind, cfg.Policy, seed, err)
				}
				sameLane(t, kind.String(), want, br, l)
				want.Release()
			}
			br.Release()
		}
	}
}

// TestRunManySummary checks the aggregate block against a direct
// computation over the per-lane finish times.
func TestRunManySummary(t *testing.T) {
	s := schedule(t, 40, 10, 6, 7, core.SBM)
	plan, err := Compile(s, core.DBM)
	if err != nil {
		t.Fatal(err)
	}
	seeds := batchSeeds(33)
	br, err := plan.RunMany(Config{Policy: RandomTimes}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Release()
	min, max, sum := br.FinishTimes[0], br.FinishTimes[0], 0.0
	sorted := append([]int(nil), br.FinishTimes...)
	for _, ft := range br.FinishTimes {
		if ft < min {
			min = ft
		}
		if ft > max {
			max = ft
		}
		sum += float64(ft)
	}
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	mean := sum / float64(len(seeds))
	var sq float64
	for _, ft := range br.FinishTimes {
		d := float64(ft) - mean
		sq += d * d
	}
	std := math.Sqrt(sq / float64(len(seeds)))
	sm := br.Summary
	if sm.Min != min || sm.Max != max {
		t.Errorf("Summary min/max = %d/%d, want %d/%d", sm.Min, sm.Max, min, max)
	}
	W := len(seeds)
	if want := float64(sorted[(W-1)/2]+sorted[W/2]) / 2; sm.Median != want {
		t.Errorf("Summary median = %g, want %g", sm.Median, want)
	}
	if math.Abs(sm.Mean-mean) > 1e-9 || math.Abs(sm.Std-std) > 1e-9 {
		t.Errorf("Summary mean/std = %g/%g, want %g/%g", sm.Mean, sm.Std, mean, std)
	}
	if min > max || sm.Median < float64(min) || sm.Median > float64(max) {
		t.Errorf("Summary ordering violated: %+v", sm)
	}
}

// TestRunManyEmptySeeds pins the zero-width error.
func TestRunManyEmptySeeds(t *testing.T) {
	s := schedule(t, 30, 8, 4, 1, core.SBM)
	plan, err := Compile(s, core.SBM)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.RunMany(Config{Policy: MinTimes}, nil); err == nil {
		t.Fatal("RunMany accepted an empty seed set")
	}
}

// TestRunManyAllocs pins the warm batch path: once the batch and chunk
// pools are warm, a RunMany-and-Release cycle must not allocate, for
// either machine kind. (AllocsPerRun pins GOMAXPROCS to 1, so this
// exercises the inline single-chunk path — the multi-chunk path pays
// one closure plus the worker handoff.)
func TestRunManyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; pin only holds without -race")
	}
	seeds := batchSeeds(32)
	s := schedule(t, 50, 10, 8, 5, core.SBM)
	for _, kind := range []core.MachineKind{core.SBM, core.DBM} {
		plan, err := Compile(s, kind)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Policy: RandomTimes, BarrierCost: 1}
		for i := 0; i < 3; i++ {
			br, err := plan.RunMany(cfg, seeds)
			if err != nil {
				t.Fatal(err)
			}
			br.Release()
		}
		allocs := testing.AllocsPerRun(100, func() {
			br, err := plan.RunMany(cfg, seeds)
			if err != nil {
				t.Fatal(err)
			}
			br.Release()
		})
		if allocs != 0 {
			t.Errorf("%v: warm RunMany allocates %.1f per batch, want 0", kind, allocs)
		}
	}
}

// TestRunManyTraceMatchesScalar: with a recorder attached, the batch's
// replayed event stream must be byte-identical (as JSONL) to scalar
// runs recorded in the same seed order.
func TestRunManyTraceMatchesScalar(t *testing.T) {
	seeds := batchSeeds(9)
	s := schedule(t, 40, 10, 6, 3, core.SBM)
	for _, kind := range []core.MachineKind{core.SBM, core.DBM} {
		plan, err := Compile(s, kind)
		if err != nil {
			t.Fatal(err)
		}
		scalar, batch := obsv.NewRing(1<<12), obsv.NewRing(1<<12)
		for _, seed := range seeds {
			r, err := plan.Run(Config{Policy: RandomTimes, Seed: seed, BarrierCost: 2, Recorder: scalar})
			if err != nil {
				t.Fatal(err)
			}
			r.Release()
		}
		br, err := plan.RunMany(Config{Policy: RandomTimes, BarrierCost: 2, Recorder: batch}, seeds)
		if err != nil {
			t.Fatal(err)
		}
		br.Release()
		var sb, bb bytes.Buffer
		if err := obsv.WriteJSONL(&sb, scalar); err != nil {
			t.Fatal(err)
		}
		if err := obsv.WriteJSONL(&bb, batch); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sb.Bytes(), bb.Bytes()) {
			t.Errorf("%v: batch trace differs from scalar trace\nscalar:\n%s\nbatch:\n%s",
				kind, sb.String(), bb.String())
		}
	}
}

// corruptQueue reverses a compiled SBM plan's firing queue in place and
// returns an undo function. The timeline order then disagrees with the
// static order, which the simulator reports as an order violation or
// deadlock — identically on the scalar and batch paths.
func corruptQueue(p *Plan) func() {
	orig := append([]int32(nil), p.queue...)
	for i, j := 0, len(p.queue)-1; i < j; i, j = i+1, j-1 {
		p.queue[i], p.queue[j] = p.queue[j], p.queue[i]
	}
	return func() { copy(p.queue, orig) }
}

// corruptWait replaces a compiled plan's first wait instruction with a
// node index in place (so one barrier never collects its arrivals) and
// returns an undo function. On a DBM the calendar never sees the
// barrier → deadlock; on an SBM the queue top never becomes ready.
func corruptWait(p *Plan) func() {
	for i, v := range p.items {
		if v < 0 {
			p.items[i] = 0
			orig := v
			return func() { p.items[i] = orig }
		}
	}
	return func() {}
}

// TestRunManyErrorPaths: structural failures must (a) produce the exact
// scalar error, (b) recycle pooled state so repeated failing batches
// neither leak nor panic, and (c) leave the pools clean — after undoing
// the corruption, the same plan's RunMany is byte-identical to scalar
// again, proving a failed batch cannot poison later ones.
func TestRunManyErrorPaths(t *testing.T) {
	seeds := batchSeeds(16)
	s := schedule(t, 45, 10, 6, 8, core.SBM)
	for _, tc := range []struct {
		kind    core.MachineKind
		corrupt func(*Plan) func()
	}{
		{core.SBM, corruptQueue},
		{core.SBM, corruptWait},
		{core.DBM, corruptWait},
	} {
		plan, err := Compile(s, tc.kind)
		if err != nil {
			t.Fatal(err)
		}
		undo := tc.corrupt(plan)
		_, serr := plan.Run(Config{Policy: MinTimes})
		if serr == nil {
			t.Fatalf("%v: corruption did not break the scalar path", tc.kind)
		}
		for i := 0; i < 3; i++ {
			br, berr := plan.RunMany(Config{Policy: MinTimes}, seeds)
			if berr == nil {
				br.Release()
				t.Fatalf("%v: RunMany succeeded on a corrupted plan", tc.kind)
			}
			if br != nil {
				t.Fatalf("%v: RunMany returned a result alongside an error", tc.kind)
			}
			if berr.Error() != serr.Error() {
				t.Fatalf("%v: batch error %q, scalar error %q", tc.kind, berr, serr)
			}
		}
		undo()
		br, err := plan.RunMany(Config{Policy: RandomTimes, BarrierCost: 1}, seeds)
		if err != nil {
			t.Fatalf("%v: RunMany after undo: %v", tc.kind, err)
		}
		for l, seed := range seeds {
			want, err := plan.Run(Config{Policy: RandomTimes, BarrierCost: 1, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			sameLane(t, "post-error "+tc.kind.String(), want, br, l)
			want.Release()
		}
		br.Release()
	}
}

// TestRunErrorPathTrace: on a corrupted plan, Plan.Run and RunMany
// record the same events — run-start and the barriers fired before the
// failure for the first seed, and no run-end — which is what a loop of
// Plan.Run calls over the seeds records before it returns the error.
func TestRunErrorPathTrace(t *testing.T) {
	seeds := batchSeeds(16)
	s := schedule(t, 45, 10, 6, 8, core.SBM)
	for _, tc := range []struct {
		kind    core.MachineKind
		corrupt func(*Plan) func()
	}{
		{core.SBM, corruptQueue},
		{core.SBM, corruptWait},
		{core.DBM, corruptWait},
	} {
		plan := compile(t, s, tc.kind)
		undo := tc.corrupt(plan)
		scalar, batch := obsv.NewRing(1<<12), obsv.NewRing(1<<12)
		cfg := Config{Policy: RandomTimes, BarrierCost: 1, Seed: seeds[0], Recorder: scalar}
		if _, err := plan.Run(cfg); err == nil {
			t.Fatalf("%v: Plan.Run succeeded on a corrupted plan", tc.kind)
		}
		cfg.Recorder = batch
		if _, err := plan.RunMany(cfg, seeds); err == nil {
			t.Fatalf("%v: RunMany succeeded on a corrupted plan", tc.kind)
		}
		undo()
		evs := scalar.Events()
		if len(evs) == 0 || evs[0].Kind != obsv.KindRunStart || evs[0].Arg0 != seeds[0] {
			t.Fatalf("%v: failed run's trace does not open with the seed's run-start: %v", tc.kind, evs)
		}
		for _, ev := range evs[1:] {
			if ev.Kind != obsv.KindBarrierFire {
				t.Fatalf("%v: failed run recorded %v after run-start", tc.kind, ev.Kind)
			}
		}
		var sb, bb bytes.Buffer
		if err := obsv.WriteJSONL(&sb, scalar); err != nil {
			t.Fatal(err)
		}
		if err := obsv.WriteJSONL(&bb, batch); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sb.Bytes(), bb.Bytes()) {
			t.Errorf("%v: failed batch trace differs from failed run trace\nrun:\n%s\nbatch:\n%s",
				tc.kind, sb.String(), bb.String())
		}
	}
}

// TestResultDoubleRelease: a second Release must be a no-op. If it ever
// put the scratch in the pool twice, the two live results drawn below
// would share one scratch and the first's data would be overwritten by
// the second run. Run and RunMany draw from one batch pool, so RunMany
// calls on the plan must leave a live Run result unchanged as well.
func TestResultDoubleRelease(t *testing.T) {
	s := schedule(t, 40, 10, 6, 6, core.SBM)
	plan, err := Compile(s, core.SBM)
	if err != nil {
		t.Fatal(err)
	}
	r, err := plan.Run(Config{Policy: RandomTimes, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.Release()
	r.Release() // must be a no-op
	r1, err := plan.Run(Config{Policy: RandomTimes, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	want1 := r1.FinishTime
	r2, err := plan.Run(Config{Policy: RandomTimes, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r1.FinishTime != want1 {
		t.Error("double release leaked one scratch to two live results")
	}
	oracle, err := RunAs(s, core.SBM, Config{Policy: RandomTimes, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "after double release", oracle, r1)
	for _, w := range []int{1, 8, 17} {
		br, err := plan.RunMany(Config{Policy: MaxTimes, BarrierCost: 4}, batchSeeds(w))
		if err != nil {
			t.Fatal(err)
		}
		br.Release()
	}
	sameResult(t, "after RunMany on the shared pool", oracle, r1)
	r1.Release()
	r2.Release()
}

// TestBatchResultDoubleRelease is the same property for RunMany.
func TestBatchResultDoubleRelease(t *testing.T) {
	s := schedule(t, 40, 10, 6, 6, core.SBM)
	plan, err := Compile(s, core.DBM)
	if err != nil {
		t.Fatal(err)
	}
	seeds := batchSeeds(8)
	br, err := plan.RunMany(Config{Policy: RandomTimes}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	br.Release()
	br.Release() // must be a no-op
	b1, err := plan.RunMany(Config{Policy: RandomTimes, BarrierCost: 1}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	want1 := append([]int(nil), b1.FinishTimes...)
	b2, err := plan.RunMany(Config{Policy: RandomTimes, BarrierCost: 3}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for l := range want1 {
		if b1.FinishTimes[l] != want1[l] {
			t.Fatal("double release leaked one batch scratch to two live results")
		}
	}
	b1.Release()
	b2.Release()
}

// TestConcurrentRunMany shares one plan across goroutines under -race,
// each running batches and checking lane 0 and the last lane against
// precomputed scalar finishes.
func TestConcurrentRunMany(t *testing.T) {
	s := schedule(t, 40, 10, 6, 9, core.SBM)
	for _, kind := range []core.MachineKind{core.SBM, core.DBM} {
		plan, err := Compile(s, kind)
		if err != nil {
			t.Fatal(err)
		}
		const goroutines = 6
		seeds := batchSeeds(11)
		want := make([]int, len(seeds))
		for i, seed := range seeds {
			r, err := plan.Run(Config{Policy: RandomTimes, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			want[i] = r.FinishTime
			r.Release()
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					br, err := plan.RunMany(Config{Policy: RandomTimes}, seeds)
					if err != nil {
						t.Error(err)
						return
					}
					for l := range seeds {
						if br.FinishTimeOf(l) != want[l] {
							t.Errorf("%v: lane %d finish %d, want %d", kind, l, br.FinishTimeOf(l), want[l])
							break
						}
					}
					br.Release()
				}
			}()
		}
		wg.Wait()
	}
}

// TestRunManyStats checks the batch counters: one RunMany bumps batches
// by 1 and both lanes and runs by W.
func TestRunManyStats(t *testing.T) {
	s := schedule(t, 30, 8, 4, 4, core.SBM)
	plan, err := Compile(s, core.SBM)
	if err != nil {
		t.Fatal(err)
	}
	seeds := batchSeeds(12)
	before := Stats()
	br, err := plan.RunMany(Config{Policy: RandomTimes}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	br.Release()
	after := Stats()
	if after.Batches != before.Batches+1 {
		t.Errorf("batches %d → %d, want +1", before.Batches, after.Batches)
	}
	if after.Lanes != before.Lanes+uint64(len(seeds)) {
		t.Errorf("lanes %d → %d, want +%d", before.Lanes, after.Lanes, len(seeds))
	}
	if after.Runs != before.Runs+uint64(len(seeds)) {
		t.Errorf("runs %d → %d, want +%d (batched lanes count as runs)", before.Runs, after.Runs, len(seeds))
	}
}
