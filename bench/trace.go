package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans around the benchmark's calls into each layer.
// Span names are "layer.Function"; the layer is the text before the
// first dot. Spans live in a slice preallocated at construction, so
// recording never allocates; spans beyond its capacity are still counted
// in the per-name aggregates but not kept for the Chrome trace.
//
// A nil *tracer is the untraced mode: every method is a nil check, so
// the traced and untraced runs execute the same code.
type tracer struct {
	base time.Time
	// concurrent puts each op on its own Chrome-trace track, because the
	// ops of an open-loop workload overlap in time.
	concurrent bool

	next  atomic.Int64
	spans []span

	mu  sync.Mutex
	agg map[string]*spanAgg

	// alloc is read only by single-caller workloads (runtime/metrics
	// samples are not safe to read concurrently into one slice).
	alloc      []metrics.Sample
	allocReads atomic.Int64
}

type span struct {
	name       string
	op         int64
	parent     int64 // slot of the parent span, -1 for a root
	start, end time.Duration
}

// spanAgg sums every span of one name. selfInOp counts only spans nested
// under a "bench.op" root: the per-layer share of op time is built from it.
type spanAgg struct {
	calls    int64
	total    time.Duration
	selfInOp time.Duration
}

// opSpan is the root span of one operation; shares are relative to it.
const opSpan = "bench.op"

func newTracer(capacity int, concurrent bool) *tracer {
	return &tracer{
		base:       time.Now(),
		concurrent: concurrent,
		spans:      make([]span, capacity),
		agg:        make(map[string]*spanAgg),
		alloc: []metrics.Sample{
			{Name: "/gc/heap/allocs:objects"},
			{Name: "/gc/heap/allocs:bytes"},
		},
	}
}

// frame is an open span on the caller's goroutine.
type frame struct {
	t      *tracer
	parent *frame
	name   string
	op     int64
	slot   int64
	inOp   bool
	start  time.Duration
	child  time.Duration
}

// root opens a span with no parent for operation op.
func (t *tracer) root(op int64, name string) frame {
	if t == nil {
		return frame{}
	}
	f := frame{t: t, name: name, op: op, slot: t.next.Add(1) - 1}
	f.start = time.Since(t.base)
	return f
}

// child opens a span nested in parent.
func (t *tracer) child(parent *frame, name string) frame {
	if t == nil {
		return frame{}
	}
	f := frame{t: t, parent: parent, name: name, op: parent.op, slot: t.next.Add(1) - 1,
		inOp: parent.inOp || parent.name == opSpan}
	f.start = time.Since(t.base)
	return f
}

// end closes the span and charges its duration to its parent.
func (f *frame) end() {
	t := f.t
	if t == nil {
		return
	}
	end := time.Since(t.base)
	d := end - f.start
	parent := int64(-1)
	if f.parent != nil {
		f.parent.child += d
		parent = f.parent.slot
	}
	if f.slot < int64(len(t.spans)) {
		t.spans[f.slot] = span{name: f.name, op: f.op, parent: parent, start: f.start, end: end}
	}
	t.mu.Lock()
	a := t.agg[f.name]
	if a == nil {
		a = &spanAgg{}
		t.agg[f.name] = a
	}
	a.calls++
	a.total += d
	if f.inOp || f.name == opSpan {
		a.selfInOp += d - f.child
	}
	t.mu.Unlock()
}

// heapAllocs returns the cumulative heap allocation counters (objects,
// bytes). The runtime updates them when a span of the allocator is
// refilled, so a single small call can read a lag of a few hundred
// objects; summed over thousands of calls the mean per call is exact to
// well under one percent. Untraced runs read nothing.
func (t *tracer) heapAllocs() (objects, bytes uint64) {
	if t == nil {
		return 0, 0
	}
	t.allocReads.Add(1)
	metrics.Read(t.alloc)
	return t.alloc[0].Value.Uint64(), t.alloc[1].Value.Uint64()
}

// stat returns the aggregate of one span name (zero if never recorded).
func (t *tracer) stat(name string) spanAgg {
	if t == nil {
		return spanAgg{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.agg[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

// meanUS is the mean duration of one span name in microseconds.
func (t *tracer) meanUS(name string) float64 {
	a := t.stat(name)
	return ratio(float64(a.total)/1e3, float64(a.calls))
}

// layerOf is the layer part of a span name.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// shares returns each layer's self time inside ops divided by total op
// time. The harness's own glue shows as the "bench" layer, so the shares
// sum to one.
func (t *tracer) shares() map[string]float64 {
	out := make(map[string]float64)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	op := t.agg[opSpan]
	if op == nil || op.total == 0 {
		return out
	}
	for name, a := range t.agg {
		out[layerOf(name)] += float64(a.selfInOp) / float64(op.total)
	}
	return out
}

// overhead estimates the time the tracer itself added: the calibrated
// cost of one span and of one allocation-counter read, times how many
// were recorded.
func (t *tracer) overhead() time.Duration {
	if t == nil {
		return 0
	}
	spanCost, readCost := calibrate()
	return time.Duration(t.next.Load())*spanCost + time.Duration(t.allocReads.Load())*readCost
}

// calibrate times nested span pairs and counter reads on a scratch tracer.
func calibrate() (spanCost, readCost time.Duration) {
	const n = 1 << 14
	t := newTracer(n, false)
	root := t.root(0, opSpan)
	start := time.Now()
	for i := 0; i < n-1; i++ {
		f := t.child(&root, "calibrate.span")
		f.end()
	}
	spanCost = time.Since(start) / (n - 1)
	root.end()
	start = time.Now()
	for i := 0; i < 1024; i++ {
		t.heapAllocs()
	}
	readCost = time.Since(start) / 1024
	return spanCost, readCost
}

// write saves the Chrome trace (loadable in Perfetto) and the per-layer
// table of one workload into dir, returning the two paths.
func (t *tracer) write(dir, workload string) (tracePath, tablePath string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	tracePath = filepath.Join(dir, workload+".trace.json")
	tablePath = filepath.Join(dir, workload+".layers.txt")
	if err := writeFile(tracePath, t.writeChrome); err != nil {
		return "", "", err
	}
	if err := writeFile(tablePath, t.writeTable); err != nil {
		return "", "", err
	}
	return tracePath, tablePath, nil
}

func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

func (t *tracer) writeChrome(w io.Writer) error {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	if _, err := io.WriteString(w, `{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	first := true
	for i := int64(0); i < n; i++ {
		s := t.spans[i]
		if s.name == "" {
			continue // opened but never closed before the run ended
		}
		if !first {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		first = false
		tid := int64(1)
		if t.concurrent {
			tid = s.op + 1
		}
		ev := chromeEvent{Name: s.name, Cat: layerOf(s.name), Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, PID: 1, TID: tid,
			Args: map[string]any{"op": s.op, "span": i, "parent": s.parent}}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

func (t *tracer) writeTable(w io.Writer) error {
	t.mu.Lock()
	names := make([]string, 0, len(t.agg))
	aggs := make(map[string]spanAgg, len(t.agg))
	for name, a := range t.agg {
		names = append(names, name)
		aggs[name] = *a
	}
	t.mu.Unlock()
	sort.Slice(names, func(i, j int) bool { return aggs[names[i]].total > aggs[names[j]].total })

	recorded := t.next.Load()
	kept := recorded
	if kept > int64(len(t.spans)) {
		kept = int64(len(t.spans))
	}
	fmt.Fprintf(w, "spans recorded %d, kept in trace %d\n\n", recorded, kept)
	fmt.Fprintf(w, "%-32s %10s %12s %12s %14s\n", "span", "calls", "total_ms", "mean_us", "self_in_op_ms")
	for _, name := range names {
		a := aggs[name]
		fmt.Fprintf(w, "%-32s %10d %12.3f %12.3f %14.3f\n", name, a.calls,
			float64(a.total)/1e6, ratio(float64(a.total)/1e3, float64(a.calls)), float64(a.selfInOp)/1e6)
	}
	shares := t.shares()
	layers := make([]string, 0, len(shares))
	for l := range shares {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return shares[layers[i]] > shares[layers[j]] })
	fmt.Fprintf(w, "\n%-12s %10s\n", "layer", "share")
	for _, l := range layers {
		fmt.Fprintf(w, "%-12s %10.4f\n", l, shares[l])
	}
	return nil
}
