package machine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"barriermimd/internal/core"
	"barriermimd/internal/ir"
)

// optimalSBM schedules a 60-statement block on an 8-processor SBM with
// optimal insertion, so merges and the section 4.4.2 path ranking both
// shape the finished schedule.
func optimalSBM(t *testing.T) *core.Schedule {
	t.Helper()
	o := core.DefaultOptions(8)
	o.Insertion = core.Optimal
	o.Seed = 3
	s, err := core.ScheduleDAG(synthDAG(t, 60, 10, 3, ir.DefaultTimings()), o)
	if err != nil {
		t.Fatal(err)
	}
	if s.Metrics.MergedBarriers == 0 {
		t.Fatal("schedule merged no barriers")
	}
	return s
}

// readAll renders everything a reader can get from a finished schedule:
// ExportJSON, BarrierDOT, Windows, StaticSpan, VerifyStatic, and a
// compiled plan's runs under all three timing policies.
func readAll(s *core.Schedule) (string, error) {
	var sb strings.Builder
	j, err := s.ExportJSON()
	if err != nil {
		return "", err
	}
	sb.Write(j)
	sb.WriteString(s.BarrierDOT())
	w := s.Windows()
	mn, mx, err := s.StaticSpan()
	if err != nil {
		return "", err
	}
	fmt.Fprintln(&sb, w, mn, mx)
	if err := s.VerifyStatic(); err != nil {
		return "", err
	}
	plan, err := Compile(s, s.Opts.Machine)
	if err != nil {
		return "", err
	}
	for _, pol := range []Policy{MinTimes, MaxTimes, RandomTimes} {
		r, err := plan.Run(Config{Policy: pol, Seed: 5})
		if err != nil {
			return "", err
		}
		fmt.Fprintln(&sb, r.FinishTime, r.Start, r.Finish, r.FireOrder)
		r.Release()
	}
	return sb.String(), nil
}

// TestFinishedScheduleOutlivesArena: nothing a returned Schedule holds
// points into the scheduler's pooled arena, so what readers get from it
// is byte-identical after the arena has served 200 more runs of other
// shapes, machines and insertion rules.
func TestFinishedScheduleOutlivesArena(t *testing.T) {
	s := optimalSBM(t)
	before, err := readAll(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		o := core.DefaultOptions(2 + i%31)
		o.Machine = []core.MachineKind{core.SBM, core.DBM}[i%2]
		o.Insertion = []core.Insertion{core.Conservative, core.Optimal}[i/2%2]
		o.Seed = int64(i)
		if _, err := core.ScheduleDAG(synthDAG(t, 5+i%56, 8, int64(1000+i), ir.DefaultTimings()), o); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	after, err := readAll(s)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Errorf("finished schedule changed while the arena was reused:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestConcurrentReadersShareFinishedSchedule: a finished schedule is
// immutable, so goroutines may read one at once with no locks (CI runs
// this package under -race). Every reader sees what a sequential read
// saw.
func TestConcurrentReadersShareFinishedSchedule(t *testing.T) {
	s := optimalSBM(t)
	want, err := readAll(s)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := readAll(s)
			if err != nil {
				t.Error(err)
				return
			}
			if got != want {
				t.Error("concurrent read differs from the sequential one")
			}
		}()
	}
	wg.Wait()
}
