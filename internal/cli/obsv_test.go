package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readTraceEvents decodes a Chrome trace_event file written by -trace.
func readTraceEvents(t *testing.T, path string) []map[string]any {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s is not Chrome trace JSON: %v", path, err)
	}
	return doc.TraceEvents
}

func TestSimTracePerfetto(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	code, _, errb := runSim([]string{
		"-stmts", "20", "-vars", "6", "-runs", "3", "-seeds", "10",
		"-trace", path,
	}, t, "")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, errb)
	}
	if !strings.Contains(errb, "trace events written") {
		t.Errorf("no trace summary on stderr:\n%s", errb)
	}
	evs := readTraceEvents(t, path)
	names := map[string]int{}
	for _, ev := range evs {
		names[ev["name"].(string)]++
	}
	// Scheduler decisions and simulator executions must both be present:
	// the schedule, the 3 table runs, and the 10-seed sweep.
	if names["sched-done"] != 1 {
		t.Errorf("sched-done x%d, want 1 (events: %v)", names["sched-done"], names)
	}
	if names["run-start"] != 13 || names["run-end"] != 13 {
		t.Errorf("run-start x%d run-end x%d, want 13 each", names["run-start"], names["run-end"])
	}
	if names["process_name"] != 2 {
		t.Errorf("process_name x%d, want 2", names["process_name"])
	}
}

// TestSimTraceDeterministic runs the same seed sweep twice — each across
// all cores — and compares trace files byte for byte: worker scheduling
// must not leak into the stream.
func TestSimTraceDeterministic(t *testing.T) {
	dir := t.TempDir()
	var streams [][]byte
	for i := 0; i < 2; i++ {
		path := filepath.Join(dir, "trace"+string(rune('a'+i))+".jsonl")
		code, _, errb := runSim([]string{
			"-stmts", "25", "-vars", "8", "-runs", "2", "-seeds", "64",
			"-trace", path,
		}, t, "")
		if code != 0 {
			t.Fatalf("exit %d:\n%s", code, errb)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, raw)
	}
	if string(streams[0]) != string(streams[1]) {
		t.Error("two identical sweeps produced different trace files")
	}
	// JSONL mode: every line decodes.
	for ln, line := range strings.Split(strings.TrimSuffix(string(streams[0]), "\n"), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v", ln, err)
		}
	}
}

func TestSchedTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.json")
	code, _, errb := runSched([]string{"-example", "-trace", path}, t, "")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, errb)
	}
	evs := readTraceEvents(t, path)
	sawInsert := false
	for _, ev := range evs {
		if ev["name"] == "barrier-insert" {
			sawInsert = true
			if ev["pid"] != float64(1) {
				t.Errorf("scheduler event on pid %v", ev["pid"])
			}
		}
	}
	if !sawInsert {
		t.Error("Figure 1 schedule traced no barrier insertions")
	}
}

func TestSimHTTPEndpoint(t *testing.T) {
	code, _, errb := runSim([]string{"-stmts", "15", "-vars", "5", "-runs", "2",
		"-http", "127.0.0.1:0"}, t, "")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, errb)
	}
	if !strings.Contains(errb, "/metrics") {
		t.Errorf("endpoint address not announced:\n%s", errb)
	}
}

func TestExpHTTPEndpoint(t *testing.T) {
	code, _, errb := runExpCmd([]string{"-experiment", "table1", "-runs", "2",
		"-http", "127.0.0.1:0"}, t, "")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, errb)
	}
	if !strings.Contains(errb, "/metrics") {
		t.Errorf("endpoint address not announced:\n%s", errb)
	}
}

// TestDefaultRegistryScrape drives a real sweep, then checks the full
// default registry renders a parseable scrape carrying the documented
// metric families.
func TestDefaultRegistryScrape(t *testing.T) {
	if code, _, errb := runSim([]string{"-stmts", "15", "-vars", "5", "-runs", "2", "-seeds", "8"}, t, ""); code != 0 {
		t.Fatalf("exit %d:\n%s", code, errb)
	}
	var b strings.Builder
	DefaultRegistry().WritePrometheus(&b)
	text := b.String()
	for _, want := range []string{
		"barriermimd_sim_runs_total",
		"barriermimd_sim_plans_compiled_total",
		"barriermimd_sim_sequential_lanes_total",
		"barriermimd_sched_stage_seconds",
		"barriermimd_pool_batches_total",
		"barriermimd_go_goroutines",
		`stage="place"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// Spot-check format sanity: every sample line is name/value shaped.
	for ln, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.LastIndex(line, " ") <= 0 {
			t.Errorf("line %d malformed: %q", ln, line)
		}
	}
}
