package core

import (
	"fmt"
	"strings"
)

// BarrierDOT renders the schedule's barrier dag in Graphviz dot format,
// matching the paper's Figure 10 presentation: one node per barrier
// labeled with its participants and fire window, and edges labeled with
// the [min,max] region times of the code between barriers.
func (s *Schedule) BarrierDOT() string {
	fmin, fmax := s.Barriers.FireWindows()
	var sb strings.Builder
	sb.WriteString("digraph barrier_dag {\n")
	sb.WriteString("  rankdir=TB;\n  node [shape=ellipse, fontname=\"monospace\"];\n")
	for _, id := range s.BarrierIDs() {
		fmt.Fprintf(&sb, "  b%d [label=\"b%d %v\\nfires [%d,%d]\"];\n",
			id, id, s.Participants[id], fmin[id], fmax[id])
	}
	for _, e := range s.Barriers.Edges() {
		t, _ := s.Barriers.EdgeTiming(e.From, e.To)
		fmt.Fprintf(&sb, "  b%d -> b%d [label=\"[%d,%d]\"];\n",
			e.From, e.To, t.Min, t.Max)
	}
	sb.WriteString("}\n")
	return sb.String()
}
