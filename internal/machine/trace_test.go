package machine

import (
	"strings"
	"testing"

	"barriermimd/internal/core"
)

func TestGanttRendersAllProcessors(t *testing.T) {
	s := schedule(t, 30, 8, 4, 3, core.SBM)
	r := runOnce(t, s, Config{Policy: RandomTimes, Seed: 1})
	out := r.Gantt(80)
	for _, want := range []string{"P0", "P1", "P2", "P3", "t=0"} {
		if !strings.Contains(out, want) {
			t.Errorf("Gantt missing %q:\n%s", want, out)
		}
	}
	if s.NumBarriers() > 0 && !strings.Contains(out, "barriers fired:") {
		t.Errorf("Gantt missing barrier legend:\n%s", out)
	}
	// Load glyphs must appear (every benchmark loads something).
	if !strings.Contains(out, "L") {
		t.Errorf("Gantt missing load glyphs:\n%s", out)
	}
}

func TestGanttScalesLongRuns(t *testing.T) {
	s := schedule(t, 60, 10, 2, 5, core.SBM)
	r := runOnce(t, s, Config{Policy: MaxTimes})
	out := r.Gantt(40)
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "P") && len(line) > 5+40+1 {
			t.Errorf("row exceeds requested width: %q", line)
		}
	}
	if r.Gantt(0) == "" {
		t.Error("default width render empty")
	}
}

func TestBarrierCostDelaysCompletion(t *testing.T) {
	s := schedule(t, 40, 10, 8, 7, core.SBM)
	if s.NumBarriers() == 0 {
		t.Skip("benchmark scheduled without barriers")
	}
	free := runOnce(t, s, Config{Policy: MinTimes})
	costly := runOnce(t, s, Config{Policy: MinTimes, BarrierCost: 5})
	if costly.FinishTime <= free.FinishTime {
		t.Errorf("barrier cost 5 did not delay completion: %d vs %d", costly.FinishTime, free.FinishTime)
	}
	// Dependences still hold: barriers only get later, never earlier.
	if err := costly.CheckDependences(); err != nil {
		t.Error(err)
	}
	// Cost must be bounded: at most barriers*cost extra on any chain.
	bound := free.FinishTime + 5*s.NumBarriers()
	if costly.FinishTime > bound {
		t.Errorf("finish %d exceeds bound %d", costly.FinishTime, bound)
	}
}

func TestOpGlyphs(t *testing.T) {
	cases := map[string]byte{"Load": 'L', "Store": 'S', "Mul": 'M', "Div": 'D', "Mod": '%', "Add": '#', "Or": '#'}
	for op, want := range cases {
		if got := opGlyph(op); got != want {
			t.Errorf("opGlyph(%s) = %c, want %c", op, got, want)
		}
	}
}
