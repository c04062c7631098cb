package core

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// ExportedSchedule is the JSON shape produced by Schedule.ExportJSON: a
// self-contained description of a schedule for external tooling
// (visualizers, plotters, other languages). The export is one-way; the Go
// API remains the source of truth. ExportJSON writes this shape directly,
// byte for byte as json.MarshalIndent(v, "", "  ") renders it, so the
// types document the schema and decode it with encoding/json.
type ExportedSchedule struct {
	Processors int               `json:"processors"`
	Machine    string            `json:"machine"`
	Insertion  string            `json:"insertion"`
	Nodes      []ExportedNode    `json:"nodes"`
	Timelines  [][]ExportedItem  `json:"timelines"`
	Barriers   []ExportedBarrier `json:"barriers"`
	Edges      []ExportedEdge    `json:"edges"`
	Metrics    ExportedMetrics   `json:"metrics"`
	SpanMin    int               `json:"span_min"`
	SpanMax    int               `json:"span_max"`
}

// ExportedNode describes one instruction.
type ExportedNode struct {
	ID        int    `json:"id"`
	TupleID   int    `json:"tuple_id"`
	Op        string `json:"op"`
	Text      string `json:"text"`
	Processor int    `json:"processor"`
	TimeMin   int    `json:"time_min"`
	TimeMax   int    `json:"time_max"`
	StartMin  int    `json:"start_min"`
	StartMax  int    `json:"start_max"`
	FinishMin int    `json:"finish_min"`
	FinishMax int    `json:"finish_max"`
}

// ExportedItem is one timeline slot.
type ExportedItem struct {
	Kind    string `json:"kind"` // "instr" or "barrier"
	Node    int    `json:"node,omitempty"`
	Barrier int    `json:"barrier,omitempty"`
}

// ExportedBarrier describes one barrier with its fire window.
type ExportedBarrier struct {
	ID           int   `json:"id"`
	Participants []int `json:"participants"`
	FireMin      int   `json:"fire_min"`
	FireMax      int   `json:"fire_max"`
}

// ExportedEdge is one producer/consumer dependence with its resolution.
type ExportedEdge struct {
	From       int    `json:"from"`
	To         int    `json:"to"`
	Resolution string `json:"resolution"` // "serialized" or "cross"
}

// ExportedMetrics mirrors Metrics with derived fractions.
type ExportedMetrics struct {
	TotalImpliedSyncs  int     `json:"total_implied_syncs"`
	Barriers           int     `json:"barriers"`
	SerializedSyncs    int     `json:"serialized_syncs"`
	BarrierFraction    float64 `json:"barrier_fraction"`
	SerializedFraction float64 `json:"serialized_fraction"`
	StaticFraction     float64 `json:"static_fraction"`
	MergedBarriers     int     `json:"merged_barriers"`
	RepairedPairs      int     `json:"repaired_pairs"`
}

// Per-element size estimates of the ExportJSON output, in bytes, so the
// buffer for a typical schedule is allocated once.
const (
	jsonNodeBytes    = 290
	jsonItemBytes    = 55
	jsonBarrierBytes = 100
	jsonPartBytes    = 10
	jsonEdgeBytes    = 95
	jsonFixedBytes   = 500
)

// ExportJSON renders the schedule as indented JSON: the ExportedSchedule
// shape, byte-identical to json.MarshalIndent with a two-space indent.
func (s *Schedule) ExportJSON() ([]byte, error) {
	w := s.Windows()
	spanMin, spanMax, err := s.StaticSpan()
	if err != nil {
		return nil, err
	}
	fmin, fmax := s.Barriers.FireWindows()
	ids := s.BarrierIDs()
	edges := s.Graph.RealEdges()

	parts := 0 // participant entries, and barrier slots in the timelines
	for _, id := range ids {
		parts += len(s.Participants[id])
	}
	b := make([]byte, 0, jsonFixedBytes+s.Graph.N*(jsonNodeBytes+jsonItemBytes)+
		parts*(jsonPartBytes+jsonItemBytes)+len(ids)*jsonBarrierBytes+len(edges)*jsonEdgeBytes)

	b = append(b, "{\n  \"processors\": "...)
	b = strconv.AppendInt(b, int64(s.Opts.Processors), 10)
	b = append(b, ",\n  \"machine\": "...)
	b = appendString(b, s.Opts.Machine.String())
	b = append(b, ",\n  \"insertion\": "...)
	b = appendString(b, s.Opts.Insertion.String())

	b = append(b, ",\n  \"nodes\": "...)
	for n := 0; n < s.Graph.N; n++ {
		t := s.Graph.Block.Tuples[n]
		b = openElem(b, n, "\n    {\n      \"id\": ")
		b = strconv.AppendInt(b, int64(n), 10)
		b = append(b, ",\n      \"tuple_id\": "...)
		b = strconv.AppendInt(b, int64(s.Graph.Block.ID(n)), 10)
		b = append(b, ",\n      \"op\": "...)
		b = appendString(b, t.Op.String())
		b = append(b, ",\n      \"text\": "...)
		open := len(b)
		b = t.AppendText(append(b, '"'))
		b = closeString(b, open)
		b = appendIntField(b, ",\n      \"processor\": ", s.AssignTo[n])
		b = appendIntField(b, ",\n      \"time_min\": ", s.Graph.Time[n].Min)
		b = appendIntField(b, ",\n      \"time_max\": ", s.Graph.Time[n].Max)
		b = appendIntField(b, ",\n      \"start_min\": ", w.Start[n].Min)
		b = appendIntField(b, ",\n      \"start_max\": ", w.Start[n].Max)
		b = appendIntField(b, ",\n      \"finish_min\": ", w.Finish[n].Min)
		b = appendIntField(b, ",\n      \"finish_max\": ", w.Finish[n].Max)
		b = append(b, "\n    }"...)
	}
	b = closeList(b, s.Graph.N, true, "\n  ]")

	b = append(b, ",\n  \"timelines\": "...)
	for p, tl := range s.Procs {
		b = openElem(b, p, "\n    ")
		for i, it := range tl {
			// omitempty: a zero node or barrier id is left out.
			if it.IsBarrier {
				b = openElem(b, i, "\n      {\n        \"kind\": \"barrier\"")
				if it.Barrier != 0 {
					b = appendIntField(b, ",\n        \"barrier\": ", it.Barrier)
				}
			} else {
				b = openElem(b, i, "\n      {\n        \"kind\": \"instr\"")
				if it.Node != 0 {
					b = appendIntField(b, ",\n        \"node\": ", it.Node)
				}
			}
			b = append(b, "\n      }"...)
		}
		b = closeList(b, len(tl), false, "\n    ]")
	}
	b = closeList(b, len(s.Procs), true, "\n  ]")

	b = append(b, ",\n  \"barriers\": "...)
	for i, id := range ids {
		b = openElem(b, i, "\n    {\n      \"id\": ")
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, ",\n      \"participants\": "...)
		parts := s.Participants[id]
		for k, p := range parts {
			b = openElem(b, k, "\n        ")
			b = strconv.AppendInt(b, int64(p), 10)
		}
		b = closeList(b, len(parts), parts == nil, "\n      ]")
		b = appendIntField(b, ",\n      \"fire_min\": ", fmin[id])
		b = appendIntField(b, ",\n      \"fire_max\": ", fmax[id])
		b = append(b, "\n    }"...)
	}
	b = closeList(b, len(ids), true, "\n  ]")

	b = append(b, ",\n  \"edges\": "...)
	for i, e := range edges {
		b = openElem(b, i, "\n    {\n      \"from\": ")
		b = strconv.AppendInt(b, int64(e.From), 10)
		b = appendIntField(b, ",\n      \"to\": ", e.To)
		if s.AssignTo[e.From] == s.AssignTo[e.To] {
			b = append(b, ",\n      \"resolution\": \"serialized\"\n    }"...)
		} else {
			b = append(b, ",\n      \"resolution\": \"cross\"\n    }"...)
		}
	}
	b = closeList(b, len(edges), true, "\n  ]")

	m := &s.Metrics
	b = appendIntField(b, ",\n  \"metrics\": {\n    \"total_implied_syncs\": ", m.TotalImpliedSyncs)
	b = appendIntField(b, ",\n    \"barriers\": ", m.Barriers)
	b = appendIntField(b, ",\n    \"serialized_syncs\": ", m.SerializedSyncs)
	for _, f := range [...]struct {
		key string
		v   float64
	}{
		{",\n    \"barrier_fraction\": ", m.BarrierFraction()},
		{",\n    \"serialized_fraction\": ", m.SerializedFraction()},
		{",\n    \"static_fraction\": ", m.StaticFraction()},
	} {
		if b, err = appendFloat(append(b, f.key...), f.v); err != nil {
			return nil, err
		}
	}
	b = appendIntField(b, ",\n    \"merged_barriers\": ", m.MergedBarriers)
	b = appendIntField(b, ",\n    \"repaired_pairs\": ", m.RepairedPairs)
	b = appendIntField(b, "\n  },\n  \"span_min\": ", spanMin)
	b = appendIntField(b, ",\n  \"span_max\": ", spanMax)
	return append(b, "\n}"...), nil
}

// openElem starts element i of an indented array: the opening bracket
// before the first element, a comma before the others, then head (the
// element's newline, indent and any fixed prefix).
func openElem(b []byte, i int, head string) []byte {
	if i == 0 {
		b = append(b, '[')
	} else {
		b = append(b, ',')
	}
	return append(b, head...)
}

// closeList ends an array of n elements opened with openElem; tail is
// the newline and indent before the closing bracket. An array without
// elements is written whole, as encoding/json writes its slice: null
// when the slice is nil, [] when it is empty. Empty nodes, timelines,
// barriers and edges lists are nil in the schema, and an empty timeline
// row is not.
func closeList(b []byte, n int, isNil bool, tail string) []byte {
	switch {
	case n > 0:
		return append(b, tail...)
	case isNil:
		return append(b, "null"...)
	}
	return append(b, "[]"...)
}

// appendIntField appends key, then v in decimal.
func appendIntField(b []byte, key string, v int) []byte {
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

// appendFloat writes f as encoding/json does: the shortest
// representation, in exponent form below 1e-6 and from 1e21 up, with
// the exponent's leading zero dropped. NaN and infinities are errors.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f) // the same UnsupportedValueError
		return b, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 -> e-9
		b = b[:n-1]
	}
	return b, nil
}

// appendString writes s as a JSON string.
func appendString(b []byte, s string) []byte {
	open := len(b)
	return closeString(append(append(b, '"'), s...), open)
}

// closeString finishes the JSON string whose opening quote is b[open]
// and whose raw text follows it. Printable ASCII other than '"', '\\'
// and the HTML-sensitive '<', '>', '&' needs no escaping and is kept as
// is; any other text is re-rendered by encoding/json, which escapes it
// (control and HTML characters, invalid UTF-8, U+2028/U+2029) exactly
// as MarshalIndent would.
func closeString(b []byte, open int) []byte {
	for _, c := range b[open+1:] {
		if c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			raw, _ := json.Marshal(string(b[open+1:])) // a string always marshals
			return append(b[:open], raw...)
		}
	}
	return append(b, '"')
}
