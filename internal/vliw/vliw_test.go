package vliw

import (
	"testing"

	"barriermimd/internal/core"
	"barriermimd/internal/dag"
	"barriermimd/internal/ir"
	"barriermimd/internal/lang"
	"barriermimd/internal/machine"
	"barriermimd/internal/opt"
	"barriermimd/internal/synth"
)

func synthDAG(t *testing.T, stmts, vars int, seed int64) *dag.Graph {
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
	g, err := dag.Build(optb, ir.DefaultTimings())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestScheduleValid(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := synthDAG(t, 40, 10, seed)
		for _, units := range []int{1, 2, 4, 8, 16} {
			r, err := Schedule(g, units)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Validate(g); err != nil {
				t.Errorf("seed %d units %d: %v", seed, units, err)
			}
		}
	}
}

func TestScheduleRejectsZeroUnits(t *testing.T) {
	g := synthDAG(t, 10, 4, 1)
	if _, err := Schedule(g, 0); err == nil {
		t.Error("accepted 0 units")
	}
}

func TestSingleUnitIsSerial(t *testing.T) {
	g := synthDAG(t, 20, 6, 2)
	r, err := Schedule(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for n := 0; n < g.N; n++ {
		sum += g.Time[n].Max
	}
	if r.Makespan != sum {
		t.Errorf("serial makespan %d, want %d", r.Makespan, sum)
	}
}

func TestMakespanBounds(t *testing.T) {
	g := synthDAG(t, 40, 10, 3)
	_, cmax, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for _, units := range []int{1, 2, 4, 8, 16, 32} {
		r, err := Schedule(g, units)
		if err != nil {
			t.Fatal(err)
		}
		if r.Makespan < cmax {
			t.Errorf("units %d: makespan %d below critical path %d", units, r.Makespan, cmax)
		}
		if prev >= 0 && r.Makespan > prev {
			t.Errorf("units %d: makespan %d worse than with fewer units %d", units, r.Makespan, prev)
		}
		prev = r.Makespan
	}
}

func TestVLIWReachesCriticalPathWithEnoughUnits(t *testing.T) {
	// "An optimal schedule (completion time equal to the critical path
	// time) was determined for almost all the synthetic benchmarks."
	optimal := 0
	total := 20
	for seed := int64(0); seed < int64(total); seed++ {
		g := synthDAG(t, 60, 10, seed)
		_, cmax, err := g.CriticalPath()
		if err != nil {
			t.Fatal(err)
		}
		r, err := Schedule(g, 32)
		if err != nil {
			t.Fatal(err)
		}
		if r.Makespan == cmax {
			optimal++
		}
	}
	if optimal < total*3/4 {
		t.Errorf("only %d/%d benchmarks reached the critical path", optimal, total)
	}
}

func TestSection6Shape(t *testing.T) {
	// Figure 18's qualitative claims on ample processors:
	//   - barrier MIMD max completion ≈ VLIW completion,
	//   - barrier MIMD min completion is meaningfully lower (~25%).
	var vsum, bmax, bmin float64
	for seed := int64(0); seed < 15; seed++ {
		g := synthDAG(t, 60, 10, seed)
		v, err := Schedule(g, 8)
		if err != nil {
			t.Fatal(err)
		}
		o := core.DefaultOptions(8)
		o.Seed = seed
		s, err := core.ScheduleDAG(g, o)
		if err != nil {
			t.Fatal(err)
		}
		mn, mx, err := s.StaticSpan()
		if err != nil {
			t.Fatal(err)
		}
		vsum += float64(v.Makespan)
		bmax += float64(mx)
		bmin += float64(mn)
	}
	ratioMax := bmax / vsum
	ratioMin := bmin / vsum
	if ratioMax > 1.3 || ratioMax < 0.8 {
		t.Errorf("barrier max / VLIW = %.3f, want ≈ 1", ratioMax)
	}
	if ratioMin > 0.95 {
		t.Errorf("barrier min / VLIW = %.3f, want meaningfully below 1", ratioMin)
	}
	if ratioMin >= ratioMax {
		t.Errorf("min ratio %.3f not below max ratio %.3f", ratioMin, ratioMax)
	}
}

func TestVLIWvsSimulatedBarrier(t *testing.T) {
	// Cross-check StaticSpan against the simulator for the comparison
	// pipeline used in figure 18.
	g := synthDAG(t, 40, 8, 7)
	o := core.DefaultOptions(8)
	s, err := core.ScheduleDAG(g, o)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := machine.Compile(s, s.Opts.Machine)
	if err != nil {
		t.Fatal(err)
	}
	r, err := plan.Run(machine.Config{Policy: machine.MaxTimes})
	if err != nil {
		t.Fatal(err)
	}
	_, mx, err := s.StaticSpan()
	if err != nil {
		t.Fatal(err)
	}
	if r.FinishTime != mx {
		t.Errorf("simulated max %d != static %d", r.FinishTime, mx)
	}
}
