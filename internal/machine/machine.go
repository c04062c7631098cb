package machine

import (
	"fmt"

	"barriermimd/internal/core"
	"barriermimd/internal/obsv"
)

// Policy selects how instruction durations are drawn within their
// [min,max] ranges.
type Policy uint8

const (
	// RandomTimes draws each duration uniformly from [min,max] using
	// Config.Seed.
	RandomTimes Policy = iota
	// MinTimes runs every instruction at its minimum time (the paper's
	// best-case completion measurement).
	MinTimes
	// MaxTimes runs every instruction at its maximum time (worst case).
	MaxTimes
)

func (p Policy) String() string {
	switch p {
	case RandomTimes:
		return "random"
	case MinTimes:
		return "min"
	case MaxTimes:
		return "max"
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// Config parameterizes one simulation run.
type Config struct {
	// Policy selects the duration model.
	Policy Policy
	// Seed drives RandomTimes.
	Seed int64
	// BarrierCost is the hardware latency, in time units, between the
	// last participant's arrival at a barrier and the simultaneous
	// resumption of all participants. The paper's experiments assume
	// zero-cost barriers ("barriers were assumed to always execute
	// immediately upon arrival of the last participating processor");
	// the companion hardware paper [OKDi90] motivates exploring small
	// nonzero costs, which the barrier-cost sensitivity experiment does.
	BarrierCost int
	// Recorder, when non-nil, receives a structured trace event at run
	// start, per barrier firing (at its simulated fire time), and at run
	// end (see internal/obsv and OBSERVABILITY.md). Events carry simulated
	// time only, so streams are deterministic for a fixed (Policy, Seed,
	// BarrierCost); Plan.Run and each lane of Plan.RunMany emit identical
	// streams. A nil Recorder leaves the hot path untouched.
	Recorder obsv.Recorder
}

// Result holds the outcome of a simulation. Barrier firing times are
// stored densely (one slot per live barrier, ascending id order) instead
// of in a per-run map; read them through FireTimeOf or the FireTimes
// compatibility method.
type Result struct {
	// Schedule is the simulated schedule.
	Schedule *core.Schedule
	// FinishTime is the completion time of the whole block (all
	// processors done).
	FinishTime int
	// Start and Finish give each real DAG node's execution interval.
	Start, Finish []int
	// FireOrder lists barrier ids in firing sequence.
	FireOrder []int

	// barIDs maps dense barrier indices to schedule-level ids in
	// ascending order; fireTime is indexed the same way (-1 = never
	// fired; the initial barrier fires at 0).
	barIDs   []int
	fireTime []int
	// bsc is non-nil when the result's storage is owned by a plan's
	// batch pool (see Release).
	bsc *batchScratch
}

// FireTimeOf returns the firing time of the given schedule-level barrier
// id. ok is false for ids that are not live barriers of the schedule (or
// never fired, which cannot happen in a successfully returned Result).
func (r *Result) FireTimeOf(id int) (t int, ok bool) {
	d := denseIndex(r.barIDs, id)
	if d < 0 || r.fireTime[d] < 0 {
		return 0, false
	}
	return r.fireTime[d], true
}

// FireTimes builds the legacy barrier-id → firing-time map (including
// InitialBarrier at 0). It allocates; hot paths should use FireTimeOf.
func (r *Result) FireTimes() map[int]int {
	m := make(map[int]int, len(r.barIDs))
	for d, id := range r.barIDs {
		if r.fireTime[d] >= 0 {
			m[id] = r.fireTime[d]
		}
	}
	return m
}

// Release recycles the result's storage into the plan pool it came from;
// the result must not be used afterwards. A second Release is a no-op, as
// is Release on a Result that no plan pool owns.
func (r *Result) Release() {
	if r.bsc != nil {
		r.bsc.release()
	}
}

// CheckDependences verifies that every producer/consumer edge of the DAG
// was satisfied in this execution: the producer finished no later than the
// consumer started. A violation means the compiler's static
// synchronization reasoning was unsound for this timing draw.
func (r *Result) CheckDependences() error {
	for _, e := range r.Schedule.Graph.RealEdges() {
		if r.Finish[e.From] > r.Start[e.To] {
			return fmt.Errorf("machine: dependence %d→%d violated: producer finished at %d, consumer started at %d (P%d→P%d)",
				e.From, e.To, r.Finish[e.From], r.Start[e.To],
				r.Schedule.AssignTo[e.From], r.Schedule.AssignTo[e.To])
		}
	}
	return nil
}
