package machine

// This file holds the legacy per-run simulator, kept as the byte-identity
// oracle for the compiled plan and the lane kernel. It re-derives the
// queue order and all simulator state from the schedule on every call
// and shares no code with the production path.

import (
	"fmt"
	"math/rand"
	"sort"

	"barriermimd/internal/core"
	"barriermimd/internal/obsv"
)

// Run simulates the schedule on the machine kind recorded in its options.
//
// Run is the reference per-run implementation: it re-derives queue order
// and simulator state from the schedule on every call. Sweeps that execute
// one schedule many times should Compile once and use Plan.Run, which is
// byte-identical (Run is retained as the oracle for that equivalence) and
// amortizes all derived state across runs.
func Run(s *core.Schedule, cfg Config) (*Result, error) {
	return run(s, s.Opts.Machine, cfg)
}

// RunAs simulates the schedule on an explicitly chosen machine kind,
// regardless of which machine it was scheduled for. Any schedule runs on
// either machine: the SBM queue is a linear extension of the barrier dag,
// so barriers can only be *delayed* relative to the DBM (never
// deadlocked), which is exactly the SBM-vs-DBM completion-time trade the
// paper describes in section 3.2. Like Run, this is the reference path;
// see Compile for the compiled fast path.
func RunAs(s *core.Schedule, kind core.MachineKind, cfg Config) (*Result, error) {
	return run(s, kind, cfg)
}

// QueueOrder computes the SBM's compile-time barrier queue: a linear
// extension of the barrier dag ordered by earliest possible firing time
// (ties by barrier id). The initial barrier is excluded — it conceptually
// fires at time zero to start the block.
func QueueOrder(s *core.Schedule) ([]int, error) {
	fmin, _, err := s.Barriers.FireWindows()
	if err != nil {
		return nil, err
	}
	node2id := make(map[int]int, len(s.BarrierNode))
	for id, n := range s.BarrierNode {
		node2id[n] = id
	}
	g := s.Barriers
	indeg := make([]int, g.Len())
	for _, e := range g.Edges() {
		indeg[e.To]++
	}
	var ready []int
	for n := 0; n < g.Len(); n++ {
		if indeg[n] == 0 {
			ready = append(ready, n)
		}
	}
	var order []int
	for len(ready) > 0 {
		sort.Slice(ready, func(a, b int) bool {
			if fmin[ready[a]] != fmin[ready[b]] {
				return fmin[ready[a]] < fmin[ready[b]]
			}
			return node2id[ready[a]] < node2id[ready[b]]
		})
		n := ready[0]
		ready = ready[1:]
		if id := node2id[n]; id != core.InitialBarrier {
			order = append(order, id)
		}
		for _, sc := range g.Succs(n) {
			indeg[sc]--
			if indeg[sc] == 0 {
				ready = append(ready, sc)
			}
		}
	}
	if want := g.Len() - 1; len(order) != want {
		return nil, fmt.Errorf("machine: queue covers %d of %d barriers", len(order), want)
	}
	return order, nil
}

// procState tracks one processor during simulation.
type procState struct {
	pos     int // next timeline index
	time    int // local clock
	blocked int // barrier id the processor waits on, or -1
	done    bool
}

func run(s *core.Schedule, kind core.MachineKind, cfg Config) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	// Durations are drawn up front, indexed by node, so that a given
	// (Policy, Seed) pair denotes one concrete execution independent of
	// the machine kind — this makes SBM and DBM runs directly comparable.
	rng := rand.New(rand.NewSource(cfg.Seed))
	durations := make([]int, s.Graph.N)
	for n := range durations {
		t := s.Graph.Time[n]
		switch cfg.Policy {
		case MinTimes:
			durations[n] = t.Min
		case MaxTimes:
			durations[n] = t.Max
		default:
			durations[n] = t.Min + rng.Intn(t.Max-t.Min+1)
		}
	}
	duration := func(node int) int { return durations[node] }

	res := &Result{
		Schedule: s,
		Start:    make([]int, s.Graph.N),
		Finish:   make([]int, s.Graph.N),
		barIDs:   s.BarrierIDs(),
	}
	res.fireTime = make([]int, len(res.barIDs))
	for d := range res.fireTime {
		res.fireTime[d] = -1
	}
	res.fireTime[0] = 0 // InitialBarrier fires at 0

	var queue []int
	if kind == core.SBM {
		var err error
		queue, err = QueueOrder(s)
		if err != nil {
			return nil, err
		}
	}

	if cfg.Recorder != nil {
		cfg.Recorder.Record(obsv.Event{Kind: obsv.KindRunStart,
			Arg0: cfg.Seed, Arg1: int64(cfg.Policy), Arg2: int64(cfg.BarrierCost)})
	}

	procs := make([]procState, len(s.Procs))
	for p := range procs {
		procs[p].blocked = -1
	}

	// advance runs processor p until it blocks on a wait or finishes.
	advance := func(p int) {
		st := &procs[p]
		tl := s.Procs[p]
		for st.pos < len(tl) {
			it := tl[st.pos]
			if it.IsBarrier {
				st.blocked = it.Barrier
				return
			}
			d := duration(it.Node)
			res.Start[it.Node] = st.time
			st.time += d
			res.Finish[it.Node] = st.time
			st.pos++
		}
		st.done = true
	}

	// fire releases barrier id: all participants resume simultaneously,
	// BarrierCost time units after the arrival of the last participant.
	fire := func(id int) error {
		t := 0
		for _, p := range s.Participants[id] {
			if procs[p].blocked != id {
				return fmt.Errorf("machine: barrier %d fired while processor %d waits on %d", id, p, procs[p].blocked)
			}
			if procs[p].time > t {
				t = procs[p].time
			}
		}
		t += cfg.BarrierCost
		for _, p := range s.Participants[id] {
			procs[p].time = t
			procs[p].blocked = -1
			procs[p].pos++
		}
		res.fireTime[denseIndex(res.barIDs, id)] = t
		res.FireOrder = append(res.FireOrder, id)
		if cfg.Recorder != nil {
			cfg.Recorder.Record(obsv.Event{Kind: obsv.KindBarrierFire, Tick: int64(t),
				Arg0: int64(id), Arg1: int64(len(s.Participants[id]))})
		}
		return nil
	}

	for {
		for p := range procs {
			if !procs[p].done && procs[p].blocked < 0 {
				advance(p)
			}
		}
		allDone := true
		for p := range procs {
			if !procs[p].done {
				allDone = false
			}
		}
		if allDone {
			break
		}

		fired := false
		switch kind {
		case core.SBM:
			// Only the top mask of the FIFO queue may fire.
			if len(queue) > 0 {
				top := queue[0]
				readyCount := 0
				for _, p := range s.Participants[top] {
					if procs[p].blocked == top {
						readyCount++
					} else if procs[p].blocked >= 0 {
						// A participant waiting at a different barrier
						// means the static order disagrees with the
						// timeline order: a scheduler bug.
						return nil, fmt.Errorf("machine: SBM order violation: processor %d waits on %d while top is %d", p, procs[p].blocked, top)
					}
				}
				if readyCount == len(s.Participants[top]) {
					if err := fire(top); err != nil {
						return nil, err
					}
					queue = queue[1:]
					fired = true
				}
			}
		default: // DBM: associative matching
			ids := make([]int, 0, len(s.Participants))
			for id := range s.Participants {
				if id != core.InitialBarrier {
					ids = append(ids, id)
				}
			}
			sort.Ints(ids)
			for _, id := range ids {
				if res.fireTime[denseIndex(res.barIDs, id)] >= 0 {
					continue
				}
				ready := true
				for _, p := range s.Participants[id] {
					if procs[p].blocked != id {
						ready = false
						break
					}
				}
				if ready {
					if err := fire(id); err != nil {
						return nil, err
					}
					fired = true
					break
				}
			}
		}
		if !fired {
			return nil, deadlockError(s, procs, queue, kind)
		}
	}

	for p := range procs {
		if procs[p].time > res.FinishTime {
			res.FinishTime = procs[p].time
		}
	}
	if cfg.Recorder != nil {
		cfg.Recorder.Record(obsv.Event{Kind: obsv.KindRunEnd,
			Tick: int64(res.FinishTime), Arg0: int64(res.FinishTime)})
	}
	return res, nil
}

func deadlockError(s *core.Schedule, procs []procState, queue []int, kind core.MachineKind) error {
	msg := fmt.Sprintf("machine: %v deadlock:", kind)
	for p := range procs {
		switch {
		case procs[p].done:
			msg += fmt.Sprintf(" P%d=done", p)
		case procs[p].blocked >= 0:
			msg += fmt.Sprintf(" P%d=wait(b%d)", p, procs[p].blocked)
		default:
			msg += fmt.Sprintf(" P%d=running", p)
		}
	}
	if kind == core.SBM && len(queue) > 0 {
		msg += fmt.Sprintf(" top=b%d", queue[0])
	}
	return fmt.Errorf("%s", msg)
}
