package core

import "barriermimd/internal/ir"

// NodeWindows holds, for every real DAG node, the static execution-time
// windows the scheduler's analysis guarantees: in any execution of the
// schedule (any draw of instruction durations within their ranges), the
// node's actual start time lies in Start[n] and its finish time in
// Finish[n]. The windows combine each node's last-barrier fire window with
// the min/max sums of the code region preceding it.
//
// These windows are the compiler's entire timing knowledge: a
// producer/consumer pair is statically safe exactly when the producer's
// Finish.Max (suitably referenced to a common dominator) precedes the
// consumer's Start.Min. The discrete-event simulator property-tests the
// containment guarantee.
type NodeWindows struct {
	Start  []ir.Timing
	Finish []ir.Timing
}

// Windows computes the static execution windows of every scheduled node.
func (s *Schedule) Windows() NodeWindows {
	fmin, fmax := s.Barriers.FireWindows()
	w := NodeWindows{
		Start:  make([]ir.Timing, s.Graph.N),
		Finish: make([]ir.Timing, s.Graph.N),
	}
	for p := range s.Procs {
		lastBar := InitialBarrier
		dmin, dmax := 0, 0
		for _, it := range s.Procs[p] {
			if it.IsBarrier {
				lastBar = it.Barrier
				dmin, dmax = 0, 0
				continue
			}
			t := s.Graph.Time[it.Node]
			w.Start[it.Node] = ir.Timing{Min: fmin[lastBar] + dmin, Max: fmax[lastBar] + dmax}
			dmin += t.Min
			dmax += t.Max
			w.Finish[it.Node] = ir.Timing{Min: fmin[lastBar] + dmin, Max: fmax[lastBar] + dmax}
		}
	}
	return w
}
