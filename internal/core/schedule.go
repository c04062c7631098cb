package core

import (
	"fmt"
	"slices"
	"strings"

	"barriermimd/internal/dag"
	"barriermimd/internal/ir"
)

// Item is one slot in a processor timeline: either an instruction node of
// the DAG or a wait on a barrier.
type Item struct {
	// Node is a DAG node index when IsBarrier is false.
	Node int
	// Barrier is a schedule-level barrier id when IsBarrier is true.
	// Barrier 0 is the initial barrier, which is implicit at the head of
	// every timeline and never appears as an Item.
	Barrier int
	// IsBarrier distinguishes the two cases.
	IsBarrier bool
}

func (it Item) String() string {
	if it.IsBarrier {
		return fmt.Sprintf("wait(b%d)", it.Barrier)
	}
	return fmt.Sprintf("n%d", it.Node)
}

// InitialBarrier is the schedule-level id of the implicit initial barrier.
const InitialBarrier = 0

// Schedule is the result of scheduling one basic block on a barrier MIMD.
type Schedule struct {
	// Graph is the scheduled instruction DAG.
	Graph *dag.Graph
	// Opts are the options the schedule was produced with.
	Opts Options
	// Procs holds each processor's timeline. Every timeline implicitly
	// starts with the initial barrier.
	Procs [][]Item
	// AssignTo maps each real DAG node to its processor.
	AssignTo []int
	// Participants holds each barrier id's sorted processor set,
	// InitialBarrier included. An id merged away by the SBM merge pass
	// has a nil entry.
	Participants [][]int
	// Barriers is the final barrier dag, frozen and indexed by barrier id.
	Barriers BarrierView
	// Metrics summarizes the synchronization accounting.
	Metrics Metrics
}

// NumBarriers returns the number of barriers inserted by the scheduler,
// excluding the implicit initial barrier.
func (s *Schedule) NumBarriers() int {
	n := -1
	for _, ps := range s.Participants {
		if ps != nil {
			n++
		}
	}
	return n
}

// BarrierIDs returns the live barrier ids in ascending order, including
// InitialBarrier.
func (s *Schedule) BarrierIDs() []int {
	ids := make([]int, 0, len(s.Participants))
	for id, ps := range s.Participants {
		if ps != nil {
			ids = append(ids, id)
		}
	}
	return ids
}

// StaticSpan returns the exact completion time of the schedule under
// all-minimum and all-maximum instruction timings, derived from barrier
// fire windows (the discrete-event simulator reproduces the same values).
func (s *Schedule) StaticSpan() (min, max int, err error) {
	fmin, fmax := s.Barriers.FireWindows()
	tm := s.timingOf
	for p := range s.Procs {
		lastBar := InitialBarrier
		dmin, dmax := 0, 0
		for _, it := range s.Procs[p] {
			if it.IsBarrier {
				lastBar = it.Barrier
				dmin, dmax = 0, 0
				continue
			}
			t := tm(it.Node)
			dmin += t.Min
			dmax += t.Max
		}
		if end := fmin[lastBar] + dmin; end > min {
			min = end
		}
		if end := fmax[lastBar] + dmax; end > max {
			max = end
		}
	}
	return min, max, nil
}

func (s *Schedule) timingOf(node int) ir.Timing { return s.Graph.Time[node] }

// CloneForGraph returns a shallow copy of the schedule with the graph
// pointer replaced. The caller must guarantee g is identical to the
// schedule's graph in index space (dag.Equal): the copy shares timelines,
// assignment, barrier view, and metrics with the original, and every node
// index in them is reinterpreted against g. The schedule cache uses this
// to serve a hit computed on one graph object to a request carrying a
// distinct but content-identical graph, so renderings and exports show the
// caller's own block text.
func (s *Schedule) CloneForGraph(g *dag.Graph) *Schedule {
	c := &Schedule{
		Graph:        g,
		Opts:         s.Opts,
		Procs:        s.Procs,
		AssignTo:     s.AssignTo,
		Participants: s.Participants,
		Barriers:     s.Barriers,
		Metrics:      s.Metrics,
	}
	return c
}

// Validate checks structural invariants: every real node appears exactly
// once, on the processor AssignTo claims; same-processor dependences are in
// program order; barrier participant sets match the timelines that wait on
// them. It reads each timeline once.
func (s *Schedule) Validate() error {
	if len(s.Participants) == 0 || s.Participants[InitialBarrier] == nil {
		return fmt.Errorf("core: schedule has no initial barrier")
	}
	// seen counts each node's appearances and pos holds its timeline
	// index; waits counts each barrier id's wait items.
	seen := make([]int, s.Graph.N)
	pos := make([]int, s.Graph.N)
	waits := make([]int, len(s.Participants))
	for p, tl := range s.Procs {
		for idx, it := range tl {
			if it.IsBarrier {
				if it.Barrier < 0 || it.Barrier >= len(s.Participants) ||
					!slices.Contains(s.Participants[it.Barrier], p) {
					return fmt.Errorf("core: processor %d waits on barrier %d it does not participate in", p, it.Barrier)
				}
				waits[it.Barrier]++
				continue
			}
			n := it.Node
			if n < 0 || n >= s.Graph.N {
				return fmt.Errorf("core: timeline %d holds invalid node %d", p, n)
			}
			seen[n]++
			if s.AssignTo[n] != p {
				return fmt.Errorf("core: node %d on processor %d but AssignTo says %d", n, p, s.AssignTo[n])
			}
			pos[n] = idx
		}
	}
	for n, c := range seen {
		if c != 1 {
			return fmt.Errorf("core: node %d scheduled %d times", n, c)
		}
	}
	for _, e := range s.Graph.RealEdges() {
		if s.AssignTo[e.From] == s.AssignTo[e.To] && pos[e.From] >= pos[e.To] {
			return fmt.Errorf("core: same-processor edge %v out of order", e)
		}
	}
	for id, parts := range s.Participants {
		if id == InitialBarrier || parts == nil {
			continue
		}
		if waits[id] != len(parts) {
			return fmt.Errorf("core: barrier %d has %d participants but %d waits", id, len(parts), waits[id])
		}
	}
	return nil
}

// Render draws the schedule as a per-processor listing with barriers,
// similar to the paper's barrier embedding figures rotated into text:
//
//	P0: n0 n3 | b1 | n7
//	P1: n1 | b1 | n8 n9
func (s *Schedule) Render() string {
	var sb strings.Builder
	for p, tl := range s.Procs {
		fmt.Fprintf(&sb, "P%-3d:", p)
		for _, it := range tl {
			if it.IsBarrier {
				fmt.Fprintf(&sb, " |b%d|", it.Barrier)
			} else {
				fmt.Fprintf(&sb, " %s", s.Graph.Block.Tuples[it.Node].Op)
			}
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "barriers: %d (plus initial)\n", s.NumBarriers())
	return sb.String()
}
