package core

import (
	"testing"
	"testing/quick"

	"barriermimd/internal/dag"
	"barriermimd/internal/ir"
	"barriermimd/internal/lang"
	"barriermimd/internal/opt"
	"barriermimd/internal/synth"
)

// quickSchedule builds a random schedule from a seed, varying benchmark
// size, machine width, and machine kind.
func quickSchedule(seed int64) (*Schedule, error) {
	stmts := 5 + int(uint64(seed)%40)
	vars := 2 + int(uint64(seed)%9)
	procs := 1 + int(uint64(seed/7)%8)
	prog, err := synth.Generate(synth.Config{Statements: stmts, Variables: vars}, seed)
	if err != nil {
		return nil, err
	}
	naive, err := lang.Compile(prog)
	if err != nil {
		return nil, err
	}
	optb, _, err := opt.Optimize(naive)
	if err != nil {
		return nil, err
	}
	g, err := dag.Build(optb, ir.DefaultTimings())
	if err != nil {
		return nil, err
	}
	o := DefaultOptions(procs)
	o.Seed = seed
	if seed%2 == 0 {
		o.Machine = DBM
	}
	if seed%3 == 0 {
		o.Insertion = Optimal
	}
	return ScheduleDAG(g, o)
}

func TestQuickSchedulesValidate(t *testing.T) {
	f := func(seed int64) bool {
		s, err := quickSchedule(seed)
		if err != nil {
			return false
		}
		return s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickFractionBounds(t *testing.T) {
	f := func(seed int64) bool {
		s, err := quickSchedule(seed)
		if err != nil {
			return false
		}
		m := s.Metrics
		for _, frac := range []float64{m.BarrierFraction(), m.SerializedFraction(), m.StaticFraction()} {
			if frac < -1e-9 || frac > 1+1e-9 {
				return false
			}
		}
		sum := m.BarrierFraction() + m.SerializedFraction() + m.StaticFraction()
		return m.TotalImpliedSyncs == 0 || (sum > 0.999 && sum < 1.001)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickWindowsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		s, err := quickSchedule(seed)
		if err != nil {
			return false
		}
		w := s.Windows()
		spanMin, spanMax, err := s.StaticSpan()
		if err != nil {
			return false
		}
		var lastMin, lastMax int
		for n := 0; n < s.Graph.N; n++ {
			if w.Start[n].Min > w.Start[n].Max || w.Finish[n].Min > w.Finish[n].Max {
				return false
			}
			if w.Finish[n].Min < w.Start[n].Min+s.Graph.Time[n].Min {
				return false
			}
			if w.Finish[n].Max > spanMax {
				return false
			}
			if w.Finish[n].Min > lastMin {
				lastMin = w.Finish[n].Min
			}
			if w.Finish[n].Max > lastMax {
				lastMax = w.Finish[n].Max
			}
		}
		// The span equals the latest node windows.
		return s.Graph.N == 0 || (lastMin == spanMin && lastMax == spanMax)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickBarrierStructure(t *testing.T) {
	f := func(seed int64) bool {
		s, err := quickSchedule(seed)
		if err != nil {
			return false
		}
		for id, parts := range s.Participants {
			if id == InitialBarrier {
				if len(parts) != s.Opts.Processors {
					return false
				}
				continue
			}
			if parts == nil {
				continue // merged away
			}
			// Every barrier spans at least two processors, all in range.
			if len(parts) < 2 {
				return false
			}
			for _, p := range parts {
				if p < 0 || p >= s.Opts.Processors {
					return false
				}
			}
		}
		// The barrier dag's fire windows are ordered.
		fmin, fmax := s.Barriers.FireWindows()
		for n := range fmin {
			if fmin[n] > fmax[n] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickVerifyStatic(t *testing.T) {
	// Every schedule the compiler emits must pass the independent static
	// auditor: each cross-processor pair is barrier-ordered or
	// timing-resolved relative to its common dominator.
	f := func(seed int64) bool {
		s, err := quickSchedule(seed)
		if err != nil {
			return false
		}
		return s.VerifyStatic() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestVerifyStaticCatchesMissingBarrier(t *testing.T) {
	// Deleting a barrier from a schedule that needs it must fail the
	// auditor (after patching participants so Validate still passes).
	for seed := int64(0); seed < 30; seed++ {
		s, err := quickSchedule(seed)
		if err != nil {
			t.Fatal(err)
		}
		if s.NumBarriers() == 0 {
			continue
		}
		// Remove the first barrier's waits and its participant entry.
		var victim int = -1
		for id, parts := range s.Participants {
			if id != InitialBarrier && parts != nil {
				victim = id
				break
			}
		}
		for p := range s.Procs {
			tl := s.Procs[p][:0]
			for _, it := range s.Procs[p] {
				if it.IsBarrier && it.Barrier == victim {
					continue
				}
				tl = append(tl, it)
			}
			s.Procs[p] = tl
		}
		s.Participants[victim] = nil
		// Rebuilding the barrier dag is part of the corruption: drop the
		// victim's node by rebuilding a graph view is complex, so only
		// run the auditor when the victim had no dag successors issues —
		// simplest is to skip schedules where removal breaks Validate.
		if s.Validate() != nil {
			continue
		}
		if err := s.VerifyStatic(); err == nil {
			t.Fatalf("seed %d: auditor accepted schedule with barrier %d removed", seed, victim)
		}
		return // one demonstration suffices
	}
	t.Skip("no suitable schedule found")
}
