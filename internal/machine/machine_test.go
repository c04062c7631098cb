package machine

import (
	"strings"
	"testing"

	"barriermimd/internal/core"
	"barriermimd/internal/dag"
	"barriermimd/internal/ir"
	"barriermimd/internal/lang"
	"barriermimd/internal/opt"
	"barriermimd/internal/synth"
)

func schedule(t testing.TB, stmts, vars, procs int, seed int64, mk core.MachineKind) *core.Schedule {
	t.Helper()
	return timedSchedule(t, stmts, vars, procs, seed, mk, ir.DefaultTimings())
}

// timedSchedule is schedule under an explicit timing model.
func timedSchedule(t testing.TB, stmts, vars, procs int, seed int64, mk core.MachineKind, tm ir.TimingModel) *core.Schedule {
	t.Helper()
	o := core.DefaultOptions(procs)
	o.Machine = mk
	o.Seed = seed
	s, err := core.ScheduleDAG(synthDAG(t, stmts, vars, seed, tm), o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// synthDAG builds the instruction dag of synthetic block seed.
func synthDAG(t testing.TB, stmts, vars int, seed int64, tm ir.TimingModel) *dag.Graph {
	t.Helper()
	prog := synth.MustGenerate(synth.Config{Statements: stmts, Variables: vars}, seed)
	naive, err := lang.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	optb, _, err := opt.Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dag.Build(optb, tm)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// compile lowers s for kind through the production Compile.
func compile(t testing.TB, s *core.Schedule, kind core.MachineKind) *Plan {
	t.Helper()
	plan, err := Compile(s, kind)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// runOnce compiles s for its own machine kind and simulates it once under
// cfg through the production kernel.
func runOnce(t *testing.T, s *core.Schedule, cfg Config) *Result {
	t.Helper()
	r, err := compile(t, s, s.Opts.Machine).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunSimpleScheduleAllPolicies(t *testing.T) {
	plan := compile(t, schedule(t, 20, 6, 4, 1, core.SBM), core.SBM)
	for _, pol := range []Policy{MinTimes, MaxTimes, RandomTimes} {
		r, err := plan.Run(Config{Policy: pol, Seed: 9})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if err := r.CheckDependences(); err != nil {
			t.Errorf("%v: %v", pol, err)
		}
		if r.FinishTime <= 0 {
			t.Errorf("%v: finish time %d", pol, r.FinishTime)
		}
	}
}

func TestExtremePoliciesMatchStaticSpan(t *testing.T) {
	// The simulator and the schedule's static fire-window analysis must
	// agree exactly on the all-min and all-max executions.
	for seed := int64(0); seed < 10; seed++ {
		for _, mk := range []core.MachineKind{core.SBM, core.DBM} {
			s := schedule(t, 40, 10, 8, seed, mk)
			wantMin, wantMax, err := s.StaticSpan()
			if err != nil {
				t.Fatal(err)
			}
			plan := compile(t, s, mk)
			rmin, err := plan.Run(Config{Policy: MinTimes})
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, mk, err)
			}
			rmax, err := plan.Run(Config{Policy: MaxTimes})
			if err != nil {
				t.Fatal(err)
			}
			if rmin.FinishTime != wantMin {
				t.Errorf("seed %d %v: min finish %d, static %d", seed, mk, rmin.FinishTime, wantMin)
			}
			if rmax.FinishTime != wantMax {
				t.Errorf("seed %d %v: max finish %d, static %d", seed, mk, rmax.FinishTime, wantMax)
			}
		}
	}
}

func TestRandomTimingsNeverViolateDependences(t *testing.T) {
	// The central soundness property of the whole compiler: under any
	// timing draw, every producer finishes before its consumer starts, on
	// both machines, with both insertion algorithms.
	for seed := int64(0); seed < 12; seed++ {
		for _, mk := range []core.MachineKind{core.SBM, core.DBM} {
			s := schedule(t, 50, 10, 6, seed, mk)
			plan := compile(t, s, mk)
			for trial := int64(0); trial < 25; trial++ {
				r, err := plan.Run(Config{Policy: RandomTimes, Seed: trial})
				if err != nil {
					t.Fatalf("seed %d %v trial %d: %v", seed, mk, trial, err)
				}
				if err := r.CheckDependences(); err != nil {
					t.Fatalf("seed %d %v trial %d: %v\n%s", seed, mk, trial, err, s.Render())
				}
			}
		}
	}
}

func TestOptimalInsertionSound(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		prog := synth.MustGenerate(synth.Config{Statements: 50, Variables: 10}, seed)
		naive, _ := lang.Compile(prog)
		optb, _, _ := opt.Optimize(naive)
		g, _ := dag.Build(optb, ir.DefaultTimings())
		o := core.DefaultOptions(8)
		o.Insertion = core.Optimal
		o.Seed = seed
		s, err := core.ScheduleDAG(g, o)
		if err != nil {
			t.Fatal(err)
		}
		plan := compile(t, s, s.Opts.Machine)
		for trial := int64(0); trial < 25; trial++ {
			r, err := plan.Run(Config{Policy: RandomTimes, Seed: trial})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.CheckDependences(); err != nil {
				t.Fatalf("seed %d trial %d: %v", seed, trial, err)
			}
			r.Release()
		}
	}
}

func TestSBMQueueOrderIsLinearExtension(t *testing.T) {
	s := schedule(t, 60, 10, 8, 3, core.SBM)
	plan := compile(t, s, core.SBM)
	q := plan.idsOf(plan.queue)
	if len(q) != s.NumBarriers() {
		t.Fatalf("queue has %d entries, want %d", len(q), s.NumBarriers())
	}
	pos := map[int]int{}
	for k, id := range q {
		pos[id] = k
	}
	// Queue order must respect the barrier dag.
	for _, e := range s.Barriers.Edges() {
		if e.From == core.InitialBarrier {
			continue
		}
		if pos[e.From] >= pos[e.To] {
			t.Errorf("queue violates dag edge b%d→b%d", e.From, e.To)
		}
	}
}

func TestSBMFiresInQueueOrder(t *testing.T) {
	plan := compile(t, schedule(t, 60, 10, 8, 4, core.SBM), core.SBM)
	q := plan.idsOf(plan.queue)
	r, err := plan.Run(Config{Policy: RandomTimes, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.FireOrder) != len(q) {
		t.Fatalf("fired %d barriers, queued %d", len(r.FireOrder), len(q))
	}
	for k := range q {
		if r.FireOrder[k] != q[k] {
			t.Errorf("fire order %v != queue %v", r.FireOrder, q)
			break
		}
	}
}

func TestDBMFireTimesNeverLaterThanSBM(t *testing.T) {
	// DBM lets barriers fire in run-time order; the same schedule run as
	// DBM can only finish earlier or equal.
	for seed := int64(0); seed < 8; seed++ {
		s := schedule(t, 50, 10, 8, seed, core.SBM)
		sbm, dbm := compile(t, s, core.SBM), compile(t, s, core.DBM)
		for trial := int64(0); trial < 5; trial++ {
			cfg := Config{Policy: RandomTimes, Seed: trial}
			rs, err := sbm.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rd, err := dbm.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rd.FinishTime > rs.FinishTime {
				t.Errorf("seed %d trial %d: DBM finish %d > SBM %d", seed, trial, rd.FinishTime, rs.FinishTime)
			}
			if err := rd.CheckDependences(); err != nil {
				t.Errorf("DBM run violated dependences: %v", err)
			}
		}
	}
}

func TestBarriersResumeSimultaneously(t *testing.T) {
	s := schedule(t, 30, 8, 4, 2, core.SBM)
	r := runOnce(t, s, Config{Policy: RandomTimes, Seed: 5})
	// For every barrier, each participant's next instruction must start
	// exactly at the fire time (exact synchrony property).
	for id, fireT := range r.FireTimes() {
		if id == core.InitialBarrier {
			continue
		}
		for _, p := range s.Participants[id] {
			// Find the wait and the next instruction after it.
			tl := s.Procs[p]
			for k, it := range tl {
				if it.IsBarrier && it.Barrier == id {
					for j := k + 1; j < len(tl); j++ {
						if !tl[j].IsBarrier {
							if r.Start[tl[j].Node] != fireT {
								t.Errorf("barrier %d fired at %d but P%d's next instruction starts at %d",
									id, fireT, p, r.Start[tl[j].Node])
							}
							break
						}
						// Consecutive barrier: later fire governs.
						break
					}
					break
				}
			}
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	// Hand-craft a corrupted schedule: one participant never waits.
	s := schedule(t, 10, 4, 2, 6, core.SBM)
	if s.NumBarriers() == 0 {
		t.Skip("no barriers in this schedule")
	}
	// Remove one wait item.
	removed := false
	for p := range s.Procs {
		for k, it := range s.Procs[p] {
			if it.IsBarrier {
				s.Procs[p] = append(s.Procs[p][:k], s.Procs[p][k+1:]...)
				removed = true
				break
			}
		}
		if removed {
			break
		}
	}
	if _, err := Compile(s, core.SBM); err == nil {
		t.Fatal("corrupted schedule compiled without error")
	}
}

func TestFig1ScheduleSimulates(t *testing.T) {
	g, err := dag.Build(ir.Fig1Block(), ir.DefaultTimings())
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.ScheduleDAG(g, core.DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	plan := compile(t, s, s.Opts.Machine)
	for trial := int64(0); trial < 50; trial++ {
		r, err := plan.Run(Config{Policy: RandomTimes, Seed: trial})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.CheckDependences(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cmin, cmax, _ := g.CriticalPath()
		if r.FinishTime < cmin || (trial == 0 && r.FinishTime > 10*cmax) {
			t.Errorf("finish time %d outside sanity range [%d, %d]", r.FinishTime, cmin, 10*cmax)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if RandomTimes.String() != "random" || MinTimes.String() != "min" || MaxTimes.String() != "max" {
		t.Error("policy strings wrong")
	}
	if !strings.Contains(Policy(9).String(), "Policy") {
		t.Error("unknown policy string")
	}
}

func TestRandomDurationsWithinRanges(t *testing.T) {
	s := schedule(t, 30, 8, 4, 7, core.SBM)
	r := runOnce(t, s, Config{Policy: RandomTimes, Seed: 3})
	for n := 0; n < s.Graph.N; n++ {
		d := r.Finish[n] - r.Start[n]
		tm := s.Graph.Time[n]
		if d < tm.Min || d > tm.Max {
			t.Errorf("node %d duration %d outside %v", n, d, tm)
		}
	}
}

func TestSingleProcessorSerialExecution(t *testing.T) {
	s := schedule(t, 20, 5, 1, 8, core.SBM)
	r := runOnce(t, s, Config{Policy: MaxTimes})
	sum := 0
	for n := 0; n < s.Graph.N; n++ {
		sum += s.Graph.Time[n].Max
	}
	if r.FinishTime != sum {
		t.Errorf("serial finish %d, want %d", r.FinishTime, sum)
	}
}

func TestSimulatedTimesWithinStaticWindows(t *testing.T) {
	// The scheduler's static windows must contain every simulated start
	// and finish time, for any timing draw, on both machines. This is the
	// compiler's central timing guarantee.
	for seed := int64(0); seed < 8; seed++ {
		for _, mk := range []core.MachineKind{core.SBM, core.DBM} {
			s := schedule(t, 50, 10, 6, seed, mk)
			w := s.Windows()
			plan := compile(t, s, mk)
			for trial := int64(0); trial < 15; trial++ {
				r, err := plan.Run(Config{Policy: RandomTimes, Seed: trial})
				if err != nil {
					t.Fatal(err)
				}
				for n := 0; n < s.Graph.N; n++ {
					if r.Start[n] < w.Start[n].Min || r.Start[n] > w.Start[n].Max {
						t.Fatalf("seed %d %v trial %d: node %d start %d outside window %v",
							seed, mk, trial, n, r.Start[n], w.Start[n])
					}
					if r.Finish[n] < w.Finish[n].Min || r.Finish[n] > w.Finish[n].Max {
						t.Fatalf("seed %d %v trial %d: node %d finish %d outside window %v",
							seed, mk, trial, n, r.Finish[n], w.Finish[n])
					}
				}
			}
		}
	}
}

func TestWindowsExtremesAreTight(t *testing.T) {
	// All-min and all-max executions must achieve the window endpoints
	// exactly for SBM (the static analysis is tight, not just sound).
	s := schedule(t, 40, 10, 8, 9, core.SBM)
	w := s.Windows()
	plan := compile(t, s, core.SBM)
	rmin, err := plan.Run(Config{Policy: MinTimes})
	if err != nil {
		t.Fatal(err)
	}
	rmax, err := plan.Run(Config{Policy: MaxTimes})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < s.Graph.N; n++ {
		if rmin.Start[n] != w.Start[n].Min || rmin.Finish[n] != w.Finish[n].Min {
			t.Errorf("node %d all-min times (%d,%d) != window minima (%d,%d)",
				n, rmin.Start[n], rmin.Finish[n], w.Start[n].Min, w.Finish[n].Min)
		}
		if rmax.Start[n] != w.Start[n].Max || rmax.Finish[n] != w.Finish[n].Max {
			t.Errorf("node %d all-max times (%d,%d) != window maxima (%d,%d)",
				n, rmax.Start[n], rmax.Finish[n], w.Start[n].Max, w.Finish[n].Max)
		}
	}
}

func TestDBMDeadlockDetection(t *testing.T) {
	// Corrupt a DBM schedule by removing one wait: the associative
	// matcher can never fire that barrier, and the simulator must report
	// a deadlock rather than hang.
	s := schedule(t, 30, 8, 4, 11, core.DBM)
	if s.NumBarriers() == 0 {
		t.Skip("no barriers")
	}
	removed := false
	for p := range s.Procs {
		for k, it := range s.Procs[p] {
			if it.IsBarrier {
				s.Procs[p] = append(s.Procs[p][:k], s.Procs[p][k+1:]...)
				removed = true
				break
			}
		}
		if removed {
			break
		}
	}
	plan, err := Compile(s, core.DBM)
	if err == nil {
		_, err = plan.Run(Config{Policy: MinTimes})
	}
	if err == nil {
		t.Fatal("corrupted DBM schedule simulated without error")
	}
	if !strings.Contains(err.Error(), "deadlock") && !strings.Contains(err.Error(), "participants") {
		t.Logf("error (acceptable, from Validate): %v", err)
	}
}

func TestDBMFireTimesPointwiseDominance(t *testing.T) {
	// Stronger than finish-time comparison: with identical duration draws,
	// every barrier fires on the DBM no later than on the SBM (the queue
	// can only delay firings, never accelerate them).
	for seed := int64(0); seed < 6; seed++ {
		s := schedule(t, 50, 10, 8, seed, core.SBM)
		sbm, dbm := compile(t, s, core.SBM), compile(t, s, core.DBM)
		for trial := int64(0); trial < 4; trial++ {
			cfg := Config{Policy: RandomTimes, Seed: trial}
			rs, err := sbm.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rd, err := dbm.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for id, st := range rs.FireTimes() {
				if dt, ok := rd.FireTimeOf(id); !ok || dt > st {
					t.Errorf("seed %d trial %d: barrier %d fired at %d on DBM vs %d on SBM",
						seed, trial, id, dt, st)
				}
			}
		}
	}
}
