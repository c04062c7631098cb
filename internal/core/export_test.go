package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// Export builds the ExportedSchedule value that ExportJSON renders. It is
// the reference for the direct writer: json.MarshalIndent(Export(), "",
// "  ") must equal ExportJSON byte for byte.
func (s *Schedule) Export() (*ExportedSchedule, error) {
	w := s.Windows()
	spanMin, spanMax, err := s.StaticSpan()
	if err != nil {
		return nil, err
	}
	fmin, fmax := s.Barriers.FireWindows()

	out := &ExportedSchedule{
		Processors: s.Opts.Processors,
		Machine:    s.Opts.Machine.String(),
		Insertion:  s.Opts.Insertion.String(),
		SpanMin:    spanMin,
		SpanMax:    spanMax,
		Metrics: ExportedMetrics{
			TotalImpliedSyncs:  s.Metrics.TotalImpliedSyncs,
			Barriers:           s.Metrics.Barriers,
			SerializedSyncs:    s.Metrics.SerializedSyncs,
			BarrierFraction:    s.Metrics.BarrierFraction(),
			SerializedFraction: s.Metrics.SerializedFraction(),
			StaticFraction:     s.Metrics.StaticFraction(),
			MergedBarriers:     s.Metrics.MergedBarriers,
			RepairedPairs:      s.Metrics.RepairedPairs,
		},
	}
	for n := 0; n < s.Graph.N; n++ {
		t := s.Graph.Block.Tuples[n]
		out.Nodes = append(out.Nodes, ExportedNode{
			ID:        n,
			TupleID:   s.Graph.Block.ID(n),
			Op:        t.Op.String(),
			Text:      t.String(),
			Processor: s.AssignTo[n],
			TimeMin:   s.Graph.Time[n].Min,
			TimeMax:   s.Graph.Time[n].Max,
			StartMin:  w.Start[n].Min,
			StartMax:  w.Start[n].Max,
			FinishMin: w.Finish[n].Min,
			FinishMax: w.Finish[n].Max,
		})
	}
	for _, tl := range s.Procs {
		row := make([]ExportedItem, 0, len(tl))
		for _, it := range tl {
			if it.IsBarrier {
				row = append(row, ExportedItem{Kind: "barrier", Barrier: it.Barrier})
			} else {
				row = append(row, ExportedItem{Kind: "instr", Node: it.Node})
			}
		}
		out.Timelines = append(out.Timelines, row)
	}
	for _, id := range s.BarrierIDs() {
		out.Barriers = append(out.Barriers, ExportedBarrier{
			ID:           id,
			Participants: s.Participants[id],
			FireMin:      fmin[id],
			FireMax:      fmax[id],
		})
	}
	for _, e := range s.Graph.RealEdges() {
		res := "cross"
		if s.AssignTo[e.From] == s.AssignTo[e.To] {
			res = "serialized"
		}
		out.Edges = append(out.Edges, ExportedEdge{From: e.From, To: e.To, Resolution: res})
	}
	return out, nil
}

// checkExportJSON compares ExportJSON with the encoding/json rendering of
// Export.
func checkExportJSON(t *testing.T, name string, s *Schedule) {
	t.Helper()
	got, err := s.ExportJSON()
	if err != nil {
		t.Fatalf("%s: ExportJSON: %v", name, err)
	}
	e, err := s.Export()
	if err != nil {
		t.Fatalf("%s: Export: %v", name, err)
	}
	want, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		t.Fatalf("%s: MarshalIndent: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(0, i-80)
		t.Fatalf("%s: ExportJSON differs from MarshalIndent at byte %d:\ngot:  %q\nwant: %q",
			name, i, got[lo:min(len(got), i+80)], want[lo:min(len(want), i+80)])
	}
}

// TestExportJSONMatchesMarshalIndent checks the direct writer against
// json.MarshalIndent of the Export oracle across machines, insertion
// algorithms, machine widths and block sizes, plus edge cases: empty
// lists, and non-ASCII variable names that take the string-escaping
// fallback.
func TestExportJSONMatchesMarshalIndent(t *testing.T) {
	checked := 0
	for _, machine := range []MachineKind{SBM, DBM} {
		for _, ins := range []Insertion{Conservative, Optimal, Naive} {
			for _, procs := range []int{1, 2, 4, 8, 16} {
				for _, stmts := range []int{1, 5, 20, 60, 200} {
					g := synthGraph(t, stmts, 10, int64(stmts*31+procs))
					o := DefaultOptions(procs)
					o.Machine, o.Insertion, o.Seed = machine, ins, int64(procs)
					s, err := ScheduleDAG(g, o)
					if err != nil {
						t.Logf("%v/%v p=%d n=%d: %v (not exported)", machine, ins, procs, stmts, err)
						continue
					}
					checkExportJSON(t, fmt.Sprintf("%v/%v p=%d n=%d", machine, ins, procs, stmts), s)
					checked++
				}
			}
		}
	}
	// An empty block (nodes null), one store with no edges (edges null),
	// and non-ASCII identifiers.
	for _, src := range []string{"", "x = 5", "é = a + 日本\nb = é * é - 3\nc_٣ = b % é & 日本"} {
		g := buildGraph(t, src)
		for _, procs := range []int{1, 4} {
			s, err := ScheduleDAG(g, DefaultOptions(procs))
			if err != nil {
				t.Fatal(err)
			}
			checkExportJSON(t, fmt.Sprintf("%q p=%d", src, procs), s)
			checked++
		}
	}
	if checked < 100 {
		t.Errorf("only %d schedules checked", checked)
	}
}

// TestExportJSONEncodingTraps checks the writer's number and string
// encoders against encoding/json on values the schedule grid rarely or
// never produces: exponent-form floats, HTML-sensitive and control
// characters, and invalid UTF-8.
func TestExportJSONEncodingTraps(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, 0.1, 1.0 / 3, 2.0 / 3, 1e-6, 9.99e-7,
		1e-7, 1.5e-9, 3e-100, 1e20, 1e21, 1.25e21, 123456789, -0.5, -2e-8, math.SmallestNonzeroFloat64} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendFloat(nil, f)
		if err != nil || string(got) != string(want) {
			t.Errorf("appendFloat(%v) = %q, %v; want %q", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(f)
		if _, err := appendFloat(nil, f); err == nil || err.Error() != want.Error() {
			t.Errorf("appendFloat(%v) error = %v, want %v", f, err, want)
		}
	}
	for _, str := range []string{"", "instr", "Add 0,#-3", "a<b", "a>b", "a&b", `q"uote`, `back\\slash`,
		"tab\there", "nl\n", "\x00\x1f\x7f", "é", "日本", "\u2028\u2029", "\xff\xfe", "\xe6\x97"} {
		want, err := json.Marshal(str)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString([]byte("x"), str); string(got) != "x"+string(want) {
			t.Errorf("appendString(%q) = %q, want %q", str, got[1:], want)
		}
	}
}

// TestExportJSONAllocs bounds the writer's allocations on a 200-statement
// schedule: the output buffer, sized once, plus the windows and barrier
// list it reads.
func TestExportJSONAllocs(t *testing.T) {
	s, err := ScheduleDAG(synthGraph(t, 200, 10, 1), DefaultOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.ExportJSON(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("ExportJSON of 200 statements: %.0f allocations, want <= 16", allocs)
	}
}

func TestExportJSONRoundTripsThroughStdlib(t *testing.T) {
	s, err := quickSchedule(17)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := s.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back ExportedSchedule
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("exported JSON does not parse: %v", err)
	}
	if back.Processors != s.Opts.Processors {
		t.Errorf("processors = %d, want %d", back.Processors, s.Opts.Processors)
	}
	if len(back.Nodes) != s.Graph.N {
		t.Errorf("nodes = %d, want %d", len(back.Nodes), s.Graph.N)
	}
	if len(back.Timelines) != s.Opts.Processors {
		t.Errorf("timelines = %d, want %d", len(back.Timelines), s.Opts.Processors)
	}
	if len(back.Barriers) != s.NumBarriers()+1 {
		t.Errorf("barriers = %d, want %d", len(back.Barriers), s.NumBarriers()+1)
	}
	if len(back.Edges) != s.Metrics.TotalImpliedSyncs {
		t.Errorf("edges = %d, want %d", len(back.Edges), s.Metrics.TotalImpliedSyncs)
	}
}

func TestExportConsistency(t *testing.T) {
	s, err := quickSchedule(23)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.Export()
	if err != nil {
		t.Fatal(err)
	}
	// Every node appears in exactly one timeline, on its claimed
	// processor.
	seen := make(map[int]int)
	for p, tl := range e.Timelines {
		for _, it := range tl {
			if it.Kind == "instr" {
				seen[it.Node]++
				if e.Nodes[it.Node].Processor != p {
					t.Errorf("node %d in timeline %d but claims processor %d", it.Node, p, e.Nodes[it.Node].Processor)
				}
			}
		}
	}
	for n := range e.Nodes {
		if seen[n] != 1 {
			t.Errorf("node %d appears %d times", n, seen[n])
		}
	}
	// Fraction consistency.
	m := e.Metrics
	sum := m.BarrierFraction + m.SerializedFraction + m.StaticFraction
	if m.TotalImpliedSyncs > 0 && (sum < 0.999 || sum > 1.001) {
		t.Errorf("fractions sum to %v", sum)
	}
	// Windows ordered and within the span.
	for _, n := range e.Nodes {
		if n.StartMin > n.StartMax || n.FinishMin > n.FinishMax || n.FinishMax > e.SpanMax {
			t.Errorf("node %d windows inconsistent: %+v (span max %d)", n.ID, n, e.SpanMax)
		}
	}
	// Serialized edge count matches metrics.
	ser := 0
	for _, edge := range e.Edges {
		if edge.Resolution == "serialized" {
			ser++
		}
	}
	if ser != m.SerializedSyncs {
		t.Errorf("serialized edges %d != metrics %d", ser, m.SerializedSyncs)
	}
}

func TestBarrierDOT(t *testing.T) {
	s, err := quickSchedule(31)
	if err != nil {
		t.Fatal(err)
	}
	dot := s.BarrierDOT()
	for _, want := range []string{"digraph barrier_dag", "b0", "fires [0,0]"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	if s.NumBarriers() > 0 && !strings.Contains(dot, "->") {
		t.Error("DOT missing edges")
	}
}
