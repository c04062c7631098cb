package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func tinyRun(t *testing.T, w workload, seed int64, trace bool) (result, info) {
	t.Helper()
	o := &options{seed: seed, duration: 100 * time.Millisecond, trace: trace,
		traceDir: t.TempDir(), tiny: true, setups: 2}
	res, inf, err := runWorkload(w, o)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return res, inf
}

// TestWorkloadsEmitEveryMetric runs every workload untraced and twice
// traced at tiny size: each run passes its oracles and reports every
// metric of its kind with its unit, tracing leaves the outputs unchanged,
// and the deterministic metrics repeat exactly.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, plainInfo := tinyRun(t, w, 1, false)
			traced, tracedInfo := tinyRun(t, w, 1, true)
			again, againInfo := tinyRun(t, w, 1, true)
			for _, c := range []struct {
				res  result
				inf  info
				defs []metricDef
			}{{plain, plainInfo, endToEnd}, {traced, tracedInfo, perLayer}, {again, againInfo, perLayer}} {
				if !c.res.Correct || c.res.Failed != 0 || c.res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d errors=%v",
						c.res.Correct, c.res.Attempted, c.res.Failed, c.inf.Errors)
				}
				if len(c.res.Metrics) != len(c.defs) {
					t.Errorf("%d metrics, want %d", len(c.res.Metrics), len(c.defs))
				}
				for _, d := range c.defs {
					got, ok := c.res.Metrics[d.name]
					if !ok || got.Unit != d.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("metric %s = %+v, want a finite value in %s", d.name, got, d.unit)
					}
				}
			}
			for _, d := range endToEnd {
				if plain.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", d.name, plain.Metrics[d.name].Value)
				}
			}
			if plainInfo.Digest != tracedInfo.Digest || tracedInfo.Digest != againInfo.Digest {
				t.Errorf("digests differ across runs: %s %s %s", plainInfo.Digest, tracedInfo.Digest, againInfo.Digest)
			}
			for _, name := range []string{"core.barrier_frac", "machine.sim_cycles_mean", "core.known_failures"} {
				if a, b := traced.Metrics[name].Value, again.Metrics[name].Value; a != b {
					t.Errorf("%s differs across runs: %v, %v", name, a, b)
				}
			}
			if len(tracedInfo.Files) != 2 {
				t.Fatalf("traced run wrote %v, want a trace and a layer table", tracedInfo.Files)
			}
			var chrome struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			b, err := os.ReadFile(tracedInfo.Files[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
				t.Errorf("trace %s: %d events, err %v", tracedInfo.Files[0], len(chrome.TraceEvents), err)
			}
		})
	}
}

func TestCompileUniqueSharesCoverOpTime(t *testing.T) {
	w, _ := lookup("compile-unique")
	res, _ := tinyRun(t, w, 2, true)
	sum := 0.0
	for _, layer := range []string{"lang", "opt", "dag", "core", "machine"} {
		sum += res.Metrics[layer+".share"].Value
	}
	if sum < 0.95 || sum > 1.0001 {
		t.Errorf("layer shares sum to %.4f of op time, want within 5%%", sum)
	}
}

func TestKnownFailuresStillFail(t *testing.T) {
	if n := knownFailures(); n != 2 {
		t.Errorf("knownFailures() = %d; if the scheduler now handles them, update README.md", n)
	}
}

// TestCorruptResponsesFail shows the serve oracles are not vacuous: a
// damaged response body must count as a failed request.
func TestCorruptResponsesFail(t *testing.T) {
	for _, name := range []string{"serve-dup", "serve-unique"} {
		w, _ := lookup(name)
		o := &options{seed: 1, duration: 100 * time.Millisecond, tiny: true, setups: 1,
			corrupt: func(b []byte) []byte {
				out := append([]byte(nil), b...)
				out[len(out)/2] ^= 1
				return out
			}}
		res, inf, err := runWorkload(w, o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed != res.Attempted {
			t.Errorf("%s with corrupted responses: correct=%v failed=%d of %d", name, res.Correct, res.Failed, res.Attempted)
		}
		// Every request failed, so the latency percentiles are infinite;
		// the lines must still encode.
		for _, v := range []any{res, inf} {
			if _, err := json.Marshal(v); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

func TestDigestMismatchFailsWorkload(t *testing.T) {
	w, _ := lookup("compile-unique")
	o := &options{seed: 1, duration: 50 * time.Millisecond, tiny: true, setups: 1,
		digests: map[string]string{"compile-unique/1": "not-the-digest"}}
	res, _, err := runWorkload(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted {
		t.Errorf("digest mismatch: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
}

func TestStoredDigestsCoverDefaultSeed(t *testing.T) {
	var digests map[string]string
	if err := json.Unmarshal(digestsJSON, &digests); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(digests[w.name+"/1"]) != 64 {
			t.Errorf("digests.json has no digest for %s/1", w.name)
		}
	}
}

// TestBenchmarkFile keeps BENCHMARK.json and the code's metric tables
// in step, and checks the file's limits.
func TestBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), code has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: file %d/%d, code %d/%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	maxBound := 0.0
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: %s %s, code has %v", i, m.Name, m.Unit, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if bf.EndToEnd[0].Name != "setup_s" || bf.EndToEnd[0].Better != "lower" || bf.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must lead, be lower-is-better and carry the largest bound")
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer %d: %+v, code has %v", i, m, perLayer[i])
		}
	}
	// 4 + 22 runs per workload, each with about 3 s of set-up,
	// verification and build check, must fit 3420 s with 300 s left for
	// the two cold builds.
	runs := 4 + 22*len(bf.Workloads)
	if perRun := float64(bf.RunSeconds) + 3; float64(runs)*perRun > 3420-300 {
		t.Errorf("%d runs of about %.0f s exceed the time budget", runs, perRun)
	}
	if len(bf.Command) != 2 || bf.Command[0] != "bash" || bf.Command[1] != "bench/run.sh" ||
		len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("command %v paths %v, want bash bench/run.sh over bench", bf.Command, bf.Paths)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestQuantile(t *testing.T) {
	uniform := []sample{{4, 1}, {1, 1}, {3, 1}, {2, 1}, {5, 1}}
	if got := quantile(uniform, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(uniform, 0.9); math.Abs(got-4.6) > 1e-9 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	weighted := []sample{{10, 1}, {1, 2}, {5, 1}}
	if got := quantile(weighted, 0.5); got != 1 {
		t.Errorf("weighted median = %v, want 1", got)
	}
	if got := quantile(weighted, 0.9); got != 10 {
		t.Errorf("weighted p90 = %v, want 10", got)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(k float64) []float64 {
		out := make([]float64, len(parent))
		for i, x := range parent {
			out[i] = x * k
		}
		return out
	}
	noisy := []float64{50, 150, 60, 140, 100, 70, 130, 80, 120, 100}
	for _, c := range []struct {
		name           string
		a, b           []float64
		higherIsBetter bool
		want           string
	}{
		{"faster latency", parent, scale(0.8), false, "better"},
		{"slower latency", parent, scale(1.3), false, "worse"},
		{"higher throughput", parent, scale(1.2), true, "better"},
		{"within noise", parent, scale(1.01), false, "same"},
		{"noisy parent", noisy, noisy, false, "unresolved"},
		{"too few pairs", parent[:5], scale(0.5)[:5], false, "unresolved"},
	} {
		if got, _ := verdict(c.a, c.b, c.higherIsBetter, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
