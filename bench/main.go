// Command bench is the repository's benchmark. It drives every layer of
// the barrier-MIMD stack (lang, opt, dag, core, machine, schedcache,
// serve, exp) through their public functions on five named workloads,
// checks every output, and prints the metrics as JSON.
//
// Build and run it from the repository root through bench/run.sh:
//
//	bash bench/run.sh                                  # every workload, one child process each
//	bash bench/run.sh --workload serve-dup --seed 3    # one workload
//	bash bench/run.sh --workload sim-sweep --trace 1   # traced run: per-layer metrics and a Chrome trace
//	bash bench/run.sh compare A.jsonl B.jsonl          # noise-aware comparison of two sets of runs
//
// With --trace 0 a run reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it reports the per-layer metrics and writes
// <workload>.trace.json and <workload>.layers.txt into --tracedir. The
// last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it
// records the environment, the output digest and unguarded extras.
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options configures one workload run.
type options struct {
	seed     int64
	duration time.Duration
	trace    bool
	traceDir string
	// tiny shrinks every input so the tests run each workload in well
	// under a second.
	tiny bool
	// setups is how many times the workload is set up; setup_s is the
	// median.
	setups int
	// digests maps "workload/seed" to the expected output digest of a
	// full-size run (digests.json); tests pass their own.
	digests map[string]string
	// corrupt, when set, damages every served response body before the
	// oracle sees it (tests use it to show the oracle is not vacuous).
	corrupt func([]byte) []byte
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info is the line printed before the result.
type info struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    bool               `json:"trace"`
	Env      env                `json:"env"`
	Digest   string             `json:"digest"`
	Expected string             `json:"digest_expected,omitempty"`
	Errors   []string           `json:"errors,omitempty"`
	Flags    []string           `json:"flags,omitempty"`
	Extra    map[string]float64 `json:"extra"`
	Files    []string           `json:"files,omitempty"`
}

type metricDef struct{ name, unit string }

// endToEnd lists the untraced metrics; BENCHMARK.json gives their bounds
// and directions (a test keeps the two in step).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"max_rss_mib", "MiB"},
}

// perLayer lists the traced metrics. Every workload reports all of them;
// a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"lang.parse_us", "us"},
	{"lang.compile_us", "us"},
	{"opt.optimize_us", "us"},
	{"opt.shrink_frac", "ratio"},
	{"dag.build_us", "us"},
	{"dag.nodes_mean", "count"},
	{"dag.edges_mean", "count"},
	{"core.schedule_us", "us"},
	{"core.schedule_allocs", "count"},
	{"core.schedule_kib", "KiB"},
	{"core.stage.order_us", "us"},
	{"core.stage.place_us", "us"},
	{"core.stage.merge_us", "us"},
	{"core.stage.verify_us", "us"},
	{"core.stage.finalize_us", "us"},
	{"core.pathcache_hit_frac", "ratio"},
	{"core.maint_patch_frac", "ratio"},
	{"core.merged_per_block", "count"},
	{"core.repaired_per_block", "count"},
	{"core.verify_static_us", "us"},
	{"core.export_json_us", "us"},
	{"core.export_json_kib", "KiB"},
	{"core.barrier_frac", "ratio"},
	{"core.known_failures", "count"},
	{"lang.share", "ratio"},
	{"opt.share", "ratio"},
	{"dag.share", "ratio"},
	{"core.share", "ratio"},
	{"machine.share", "ratio"},
	{"machine.compile_us", "us"},
	{"machine.run_us_per_seed", "us"},
	{"machine.check_deps_us", "us"},
	{"machine.run_many16_us_per_seed", "us"},
	{"machine.run_many128_us_per_seed", "us"},
	{"machine.allocs_per_seed", "count"},
	{"machine.scratch_hit_frac", "ratio"},
	{"machine.lanes_per_batch", "count"},
	{"machine.sim_cycles_mean", "cycles"},
	{"schedcache.hit_frac", "ratio"},
	{"schedcache.waits", "count"},
	{"schedcache.evictions", "count"},
	{"schedcache.rejected", "count"},
	{"schedcache.fingerprint_cold_us", "us"},
	{"serve.coalesce_wait_p50_ms", "ms"},
	{"serve.coalesce_wait_p90_ms", "ms"},
	{"serve.batch_mean", "count"},
	{"serve.shared_frac", "ratio"},
	{"serve.lanes_per_run_many", "count"},
	{"serve.server_p50_ms", "ms"},
	{"serve.overloaded", "count"},
	{"serve.timed_out", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.late_max_ms", "ms"},
	{"loadgen.op_p99_ms", "ms"},
	{"exp.fig15_s", "s"},
	{"exp.fig17_s", "s"},
	{"exp.fig18_s", "s"},
	{"exp.merge_s", "s"},
	{"exp.optimal_s", "s"},
	{"exp.mimd_s", "s"},
	{"exp.barriercost_s", "s"},
	{"exp.simdist_s", "s"},
	{"pool.tasks_per_batch", "count"},
	{"proc.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

//go:embed digests.json
var digestsJSON []byte

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout, os.Stderr))
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all (each in its own child process)")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 15, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	traceDir := fs.String("tracedir", filepath.Join(envOr("CARGO_TARGET_DIR", ".bench_build"), "trace"),
		"directory for the traced run's Chrome traces and layer tables")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: need --seconds > 0, --trace 0 or 1, and no positional arguments")
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *trace, *traceDir))
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	var digests map[string]string
	if err := json.Unmarshal(digestsJSON, &digests); err != nil {
		fmt.Fprintln(os.Stderr, "bench: digests.json:", err)
		os.Exit(1)
	}
	o := &options{seed: *seed, duration: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, traceDir: *traceDir, setups: 7, digests: digests}
	res, inf, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	for _, v := range []any{inf, res} {
		b, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		out.Write(append(b, '\n'))
	}
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
}

// measurement collects what a workload's timed phase observed.
type measurement struct {
	attempted, failed int64
	// good counts operations that count toward ops_per_s: completed and
	// checked, and for the serve workloads also within the latency limit.
	good    int64
	samples []sample
	// digest receives the deterministic outputs of a fixed prefix of the
	// run's operations.
	digest io.Writer
	// layer holds the per-layer metrics the workload computed itself.
	layer  map[string]float64
	extra  map[string]float64
	errors []string
	// flags note conditions that make the run's numbers suspect without
	// failing it, such as a late load generator.
	flags []string
}

// fail counts one failed operation and keeps the first few reasons.
func (m *measurement) fail(err error) {
	m.failed++
	if len(m.errors) < 5 {
		m.errors = append(m.errors, err.Error())
	}
}

// workload is one named input set.
type workload struct {
	name string
	// openLoop workloads overlap their operations in time.
	openLoop bool
	setup    func(o *options) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// run executes the timed phase until deadline.
	run(tr *tracer, deadline time.Time, m *measurement) error
	// verify runs the oracles that need the timed phase to have ended
	// and fills in the workload's own per-layer metrics.
	verify(tr *tracer, m *measurement) error
	close()
}

var workloads = []workload{
	{"compile-unique", false, setupCompileUnique},
	{"sim-sweep", false, setupSimSweep},
	{"serve-dup", true, setupServeDup},
	{"serve-unique", true, setupServeUnique},
	{"exp-figures", false, setupExpFigures},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// runWorkload sets w up o.setups times, runs its timed phase once, checks
// its outputs and assembles the metrics.
func runWorkload(w workload, o *options) (result, info, error) {
	var inst instance
	var setups []float64
	for i := 0; i < max(o.setups, 1); i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		inst, err = w.setup(o)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return result{}, info{}, fmt.Errorf("setup: %w", err)
		}
	}
	defer inst.close()

	var tr *tracer
	if o.trace {
		tr = newTracer(traceCapacity, w.openLoop)
	}
	digest := newDigest()
	m := &measurement{digest: digest, layer: map[string]float64{}, extra: map[string]float64{}}
	gc0, total0 := gcCPU()
	cpu0 := cpuTime()
	start := time.Now()
	if err := inst.run(tr, start.Add(o.duration), m); err != nil {
		return result{}, info{}, err
	}
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	gc1, total1 := gcCPU()
	if err := inst.verify(tr, m); err != nil {
		return result{}, info{}, err
	}
	if m.attempted == 0 {
		return result{}, info{}, errors.New("no operation was attempted")
	}

	inf := info{Workload: w.name, Seed: o.seed, Seconds: o.duration.Seconds(), Trace: o.trace,
		Env: currentEnv(), Digest: digest.sum(), Extra: m.extra}
	correct := m.failed == 0
	inf.Expected = o.digests[fmt.Sprintf("%s/%d", w.name, o.seed)]
	if inf.Expected != "" && inf.Expected != inf.Digest {
		correct = false
		m.failed = m.attempted
		m.errors = append(m.errors, "output digest differs from digests.json")
	}
	inf.Errors, inf.Flags = m.errors, m.flags

	res := result{Correct: correct, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	p50, p90, p99 := quantile(m.samples, 0.50), quantile(m.samples, 0.90), quantile(m.samples, 0.99)
	inf.Extra["op_p99_ms"] = p99
	inf.Extra["latency_samples"] = float64(len(m.samples))
	for k, v := range inf.Extra {
		inf.Extra[k] = encodable(v, 0)
	}
	if !o.trace {
		values := map[string]float64{
			"setup_s":       median(setups),
			"ops_per_s":     float64(m.good) / elapsed.Seconds(),
			"op_p50_ms":     p50,
			"op_p90_ms":     p90,
			"cpu_ms_per_op": float64(cpu) / 1e6 / float64(m.attempted),
			"max_rss_mib":   maxRSSMiB(),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{encodable(values[d.name], math.MaxFloat64), d.unit}
		}
		return res, inf, nil
	}

	for _, sm := range spanMetrics {
		if tr.stat(sm.span).calls > 0 {
			m.layer[sm.metric] = tr.meanUS(sm.span)
		}
	}
	for layer, share := range tr.shares() {
		m.layer[layer+".share"] = share
	}
	m.layer["core.known_failures"] = float64(knownFailures())
	m.layer["proc.gc_cpu_frac"] = ratio(gc1-gc0, total1-total0)
	m.layer["trace.overhead_frac"] = tr.overhead().Seconds() / elapsed.Seconds()
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{encodable(m.layer[d.name], 0), d.unit}
	}
	tracePath, tablePath, err := tr.write(o.traceDir, w.name)
	if err != nil {
		return result{}, info{}, fmt.Errorf("write trace: %w", err)
	}
	inf.Files = []string{tracePath, tablePath}
	return res, inf, nil
}

// traceCapacity bounds the spans kept for the Chrome trace (48 bytes
// each in memory); later spans still feed the per-layer table.
const traceCapacity = 100_000

// encodable makes v a JSON number: a latency that failed requests pushed
// to +Inf reads as the largest float64, and an undefined value (NaN, as
// a percentile of no samples) reads as undefined.
func encodable(v, undefined float64) float64 {
	switch {
	case math.IsNaN(v):
		return undefined
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

// env describes where a run happened.
type env struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Rev        string `json:"rev"`
}

func currentEnv() env {
	return env{Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPU: cpuModel(), Rev: gitRev()}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev reads the checked-out commit from .git in the working directory
// without running git; a checkout without .git reports "unknown".
func gitRev() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// record is one line of the all-workload output, the input of compare.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

// runAll runs every workload in its own child process, one after the
// other, and prints the environment followed by one record per workload.
func runAll(seed int64, seconds float64, trace int, traceDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]env{"env": currentEnv()}); err != nil {
		return 1
	}
	status := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-tracedir", traceDir)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			status = 1
			continue
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		rec := record{Workload: w.name, Seed: seed, Trace: trace == 1}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.result); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: result line: %v\n", w.name, err)
			status = 1
			continue
		}
		if !rec.Correct {
			status = 1
		}
		if err := enc.Encode(rec); err != nil {
			return 1
		}
	}
	return status
}
