package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// run invokes a CLI entry point with a fresh stdout/stderr and optional
// stdin text, returning (exit code, stdout, stderr).
type entry func(args []string, t *testing.T, stdin string) (int, string, string)

func runGen(args []string, _ *testing.T, _ string) (int, string, string) {
	var out, errb strings.Builder
	code := Gen(args, &out, &errb)
	return code, out.String(), errb.String()
}

func runSched(args []string, _ *testing.T, stdin string) (int, string, string) {
	var out, errb strings.Builder
	code := Sched(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func runSim(args []string, _ *testing.T, stdin string) (int, string, string) {
	var out, errb strings.Builder
	code := Sim(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func runRunCF(args []string, _ *testing.T, stdin string) (int, string, string) {
	var out, errb strings.Builder
	code := RunCF(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func runExpCmd(args []string, _ *testing.T, _ string) (int, string, string) {
	var out, errb strings.Builder
	code := Exp(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestGenSource(t *testing.T) {
	code, out, _ := runGen([]string{"-stmts", "10", "-vars", "4", "-seed", "2"}, t, "")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if lines := strings.Count(out, "\n"); lines != 10 {
		t.Errorf("emitted %d lines, want 10:\n%s", lines, out)
	}
	if !strings.Contains(out, "v0") && !strings.Contains(out, "v1") {
		t.Errorf("no pool variables in output:\n%s", out)
	}
}

func TestGenTuples(t *testing.T) {
	code, out, _ := runGen([]string{"-stmts", "8", "-vars", "4", "-tuples"}, t, "")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"Tuple No.", "implied synchronizations"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestGenControlFlow(t *testing.T) {
	code, out, _ := runGen([]string{"-cf", "-stmts", "40", "-vars", "5", "-seed", "4"}, t, "")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "=") {
		t.Errorf("no assignments:\n%s", out)
	}
}

func TestGenBadFlags(t *testing.T) {
	if code, _, _ := runGen([]string{"-bogus"}, t, ""); code == 0 {
		t.Error("accepted unknown flag")
	}
	if code, _, errb := runGen([]string{"-vars", "1"}, t, ""); code == 0 || errb == "" {
		t.Error("accepted invalid variable count")
	}
}

func TestSchedExample(t *testing.T) {
	code, out, _ := runSched([]string{"-example", "-procs", "4", "-machine", "sbm"}, t, "")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{
		"Tuples (Figure 1 format)", "Store g,38", "Schedule", "Barrier dag",
		"Metrics", "completion time", "critical path",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestSchedFromStdin(t *testing.T) {
	code, out, _ := runSched([]string{"-procs", "2"}, t, "c = a + b\n")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "Add 0,1") {
		t.Errorf("missing compiled tuple:\n%s", out)
	}
}

func TestSchedFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prog.bb")
	if err := os.WriteFile(path, []byte("x = a * b\ny = x + 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runSched([]string{"-procs", "2", path}, t, "")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "Mul") {
		t.Errorf("missing Mul:\n%s", out)
	}
}

func TestSchedGantt(t *testing.T) {
	code, out, _ := runSched([]string{"-example", "-gantt"}, t, "")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "Simulated execution") {
		t.Errorf("missing gantt section:\n%s", out)
	}
}

func TestSchedBadInputs(t *testing.T) {
	if code, _, _ := runSched([]string{"-machine", "weird"}, t, ""); code == 0 {
		t.Error("accepted bad machine")
	}
	if code, _, _ := runSched([]string{"-insertion", "weird"}, t, ""); code == 0 {
		t.Error("accepted bad insertion")
	}
	if code, _, _ := runSched(nil, t, "x = "); code == 0 {
		t.Error("accepted syntax error")
	}
	if code, _, _ := runSched([]string{"/nonexistent/file.bb"}, t, ""); code == 0 {
		t.Error("accepted missing file")
	}
}

func TestSchedOptimalAndDBM(t *testing.T) {
	code, _, _ := runSched([]string{"-example", "-machine", "dbm", "-insertion", "optimal"}, t, "")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
}

func TestSimSynthetic(t *testing.T) {
	code, out, _ := runSim([]string{"-stmts", "15", "-vars", "5", "-runs", "5", "-procs", "4"}, t, "")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"scheduled", "static completion window", "all 5 executions satisfied"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestSimFromFileWithGantt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prog.bb")
	if err := os.WriteFile(path, []byte("x = a + b\ny = x * c\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runSim([]string{"-runs", "3", "-gantt", path}, t, "")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "P0") {
		t.Errorf("missing gantt rows:\n%s", out)
	}
}

func TestSimBadMachine(t *testing.T) {
	if code, _, _ := runSim([]string{"-machine", "x"}, t, ""); code == 0 {
		t.Error("accepted bad machine")
	}
}

func TestSimSeedSweep(t *testing.T) {
	code, out, _ := runSim([]string{"-stmts", "20", "-vars", "6", "-runs", "2", "-seeds", "30"}, t, "")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"seed sweep: 30 runs of one compiled plan", "finish min/median/max:", "finish mean/stddev:", "sim stats: plans="} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

// TestSimLanesMatchScalar pins the tentpole CLI contract: the lane-width
// knob changes throughput only, never the reported statistics. An odd
// width forces a partial final batch.
func TestSimLanesMatchScalar(t *testing.T) {
	sweepLines := func(lanes string) string {
		code, out, _ := runSim([]string{"-stmts", "20", "-vars", "6", "-runs", "1", "-seeds", "25", "-lanes", lanes}, t, "")
		if code != 0 {
			t.Fatalf("lanes=%s: exit %d", lanes, code)
		}
		var got []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "finish ") {
				got = append(got, line)
			}
		}
		if len(got) != 2 {
			t.Fatalf("lanes=%s: want 2 finish lines, got %q", lanes, got)
		}
		return strings.Join(got, "\n")
	}
	// -lanes 0 selects the default width; every width must agree.
	want := sweepLines("1")
	for _, lanes := range []string{"0", "7", "32"} {
		if got := sweepLines(lanes); got != want {
			t.Errorf("lanes=%s sweep diverged from lanes=1:\n%s\nvs\n%s", lanes, got, want)
		}
	}
}

func TestSimNegativeSweepFlags(t *testing.T) {
	if code, _, _ := runSim([]string{"-seeds", "-1"}, t, ""); code == 0 {
		t.Error("accepted negative -seeds")
	}
	if code, _, _ := runSim([]string{"-lanes", "-1"}, t, ""); code == 0 {
		t.Error("accepted negative -lanes")
	}
}

func TestExpNegativeLanes(t *testing.T) {
	if code, _, _ := runExpCmd([]string{"-experiment", "table1", "-lanes", "-2"}, t, ""); code == 0 {
		t.Error("accepted negative -lanes")
	}
}

func TestSimPolicyFlag(t *testing.T) {
	// Under -policy min every execution is the static best case, so the
	// sweep extremes collapse: min == median == max.
	code, out, _ := runSim([]string{"-stmts", "20", "-vars", "6", "-runs", "1", "-seeds", "10", "-policy", "min"}, t, "")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	_, line, ok := strings.Cut(out, "finish min/median/max: ")
	if !ok {
		t.Fatalf("missing sweep summary:\n%s", out)
	}
	line, _, _ = strings.Cut(line, "\n")
	parts := strings.Split(line, " / ")
	if len(parts) != 3 || parts[0] != parts[1] || parts[1] != parts[2] {
		t.Errorf("min-policy sweep not degenerate: %q", line)
	}
}

func TestSimBadPolicy(t *testing.T) {
	if code, _, _ := runSim([]string{"-policy", "fast"}, t, ""); code == 0 {
		t.Error("accepted bad policy")
	}
}

func TestExpSimStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "simstats.json")
	code, out, _ := runExpCmd([]string{"-experiment", "barriercost", "-runs", "3", "-simstats", path}, t, "")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "[sim stats written to ") {
		t.Errorf("missing sim stats line:\n%s", out)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"plans_compiled"`, `"runs"`, `"pool_hit_rate"`, `"batches"`, `"lanes"`, `"lanes_per_batch"`, `"sequential_lanes"`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("simstats JSON missing %s:\n%s", want, b)
		}
	}
}

func TestRunCFWhile(t *testing.T) {
	src := "s = 0\nwhile n {\n s = s + n\n n = n - 1\n}\n"
	code, out, _ := runRunCF([]string{"-set", "n=4", "-procs", "2"}, t, src)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"Control-flow graph", "s = 10", "n = 0", "control barriers"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	// Compiler temporaries must be hidden from the memory dump (they do
	// legitimately appear in the CFG listing above it).
	_, memDump, ok := strings.Cut(out, "=== Final memory ===")
	if !ok {
		t.Fatalf("missing memory section:\n%s", out)
	}
	if strings.Contains(memDump, "_c0") {
		t.Errorf("temporaries leaked into memory dump:\n%s", memDump)
	}
}

func TestRunCFBadInputs(t *testing.T) {
	if code, _, _ := runRunCF([]string{"-set", "oops"}, t, "x = 1"); code == 0 {
		t.Error("accepted malformed -set")
	}
	if code, _, _ := runRunCF(nil, t, "if {"); code == 0 {
		t.Error("accepted syntax error")
	}
	if code, _, _ := runRunCF([]string{"-set", "n=zz"}, t, "x = 1"); code == 0 {
		t.Error("accepted non-numeric -set")
	}
}

func TestExpList(t *testing.T) {
	code, out, _ := runExpCmd([]string{"-list"}, t, "")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"table1", "fig14", "fig18", "mimd", "barriercost"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing experiment %q:\n%s", want, out)
		}
	}
}

func TestExpSingle(t *testing.T) {
	code, out, _ := runExpCmd([]string{"-experiment", "table1", "-runs", "3"}, t, "")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "completed in") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestExpUnknown(t *testing.T) {
	if code, _, errb := runExpCmd([]string{"-experiment", "nope"}, t, ""); code == 0 || errb == "" {
		t.Error("accepted unknown experiment")
	}
}

func TestParseHelpers(t *testing.T) {
	if _, err := parseMachine("SBM"); err != nil {
		t.Error("case-insensitive machine parse failed")
	}
	if _, err := parseInsertion("OPTIMAL"); err != nil {
		t.Error("case-insensitive insertion parse failed")
	}
	if p, err := parsePolicy("MAX"); err != nil || p != 2 {
		t.Errorf("parsePolicy(MAX) = %v, %v", p, err)
	}
	if _, err := parsePolicy("typical"); err == nil {
		t.Error("accepted unknown policy")
	}
}

func TestSchedJSON(t *testing.T) {
	code, out, _ := runSched([]string{"-example", "-json"}, t, "")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.HasPrefix(strings.TrimSpace(out), "{") {
		t.Errorf("not JSON:\n%.200s", out)
	}
	for _, want := range []string{`"processors"`, `"timelines"`, `"barrier_fraction"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %q", want)
		}
	}
}

func TestSchedDOT(t *testing.T) {
	code, out, _ := runSched([]string{"-example", "-dot", "dag"}, t, "")
	if code != 0 || !strings.Contains(out, "digraph instruction_dag") {
		t.Errorf("exit %d, out:\n%.200s", code, out)
	}
	code, out, _ = runSched([]string{"-example", "-dot", "barriers"}, t, "")
	if code != 0 || !strings.Contains(out, "digraph barrier_dag") {
		t.Errorf("exit %d, out:\n%.200s", code, out)
	}
	if code, _, _ := runSched([]string{"-example", "-dot", "nope"}, t, ""); code == 0 {
		t.Error("accepted unknown dot target")
	}
}

func TestExpCSV(t *testing.T) {
	dir := t.TempDir()
	code, out, _ := runExpCmd([]string{"-experiment", "fig15", "-runs", "2", "-csv", dir}, t, "")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "series written to") {
		t.Errorf("missing csv note:\n%s", out)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "fig15.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), "statements,barrier,serialized,static\n") {
		t.Errorf("csv header wrong:\n%.100s", raw)
	}
	if strings.Count(string(raw), "\n") != 9 { // header + 8 points
		t.Errorf("csv rows = %d, want 9", strings.Count(string(raw), "\n"))
	}
}

func TestSchedFromListing(t *testing.T) {
	// bmgen -tuples output feeds straight back into bmsched -listing.
	code, listing, _ := runGen([]string{"-stmts", "8", "-vars", "4", "-tuples", "-seed", "3"}, t, "")
	if code != 0 {
		t.Fatal("bmgen failed")
	}
	// Trim the trailing summary line bmgen appends.
	cut := strings.Split(listing, "\n\n")[0] + "\n"
	code, out, errb := runSched([]string{"-procs", "4", "-listing"}, t, cut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	if !strings.Contains(out, "=== Schedule ===") {
		t.Errorf("missing schedule:\n%s", out)
	}
	if code, _, _ := runSched([]string{"-listing"}, t, "0 Frob x"); code == 0 {
		t.Error("accepted bad listing")
	}
}

func TestSchedBatchMode(t *testing.T) {
	fig1 := "../../testdata/fig1.bb"
	dot := "../../testdata/dotproduct.bb"
	code, out, errb := runSched([]string{"-procs", "4", "-j", "2", fig1, dot}, t, "")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	for _, want := range []string{fig1, dot, "batch: 2 files", "path-cache:", "stages:"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	// The batch summary must be identical regardless of worker count.
	for _, j := range []string{"1", "4"} {
		_, again, _ := runSched([]string{"-procs", "4", "-j", j, fig1, dot}, t, "")
		// Stage wall times are nondeterministic; compare everything above them.
		trim := func(s string) string { return strings.Split(s, "stages:")[0] }
		if trim(again) != trim(out) {
			t.Errorf("-j %s changed batch output", j)
		}
	}
}

func TestSchedBatchJSON(t *testing.T) {
	code, out, errb := runSched(
		[]string{"-json", "../../testdata/fig1.bb", "../../testdata/dotproduct.bb"}, t, "")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	trimmed := strings.TrimSpace(out)
	if !strings.HasPrefix(trimmed, "[") || !strings.HasSuffix(trimmed, "]") {
		t.Errorf("not a JSON array:\n%.200s", out)
	}
	if strings.Count(out, `"timelines"`) != 2 {
		t.Errorf("want 2 exported schedules:\n%.300s", out)
	}
}

func TestSchedBatchBadFile(t *testing.T) {
	if code, _, _ := runSched(
		[]string{"../../testdata/fig1.bb", "/nonexistent/x.bb"}, t, ""); code == 0 {
		t.Error("accepted missing file in batch")
	}
}

func TestSchedProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	code, _, errb := runSched([]string{"-example", "-cpuprofile", cpu, "-memprofile", mem}, t, "")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}

func TestExpWorkersFlag(t *testing.T) {
	base := []string{"-experiment", "fig14", "-runs", "2"}
	code, out1, errb := runExpCmd(append(base, "-j", "1"), t, "")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	code, out4, _ := runExpCmd(append(base, "-j", "4"), t, "")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	trim := func(s string) string { return strings.Split(s, "completed in")[0] }
	if trim(out1) != trim(out4) {
		t.Error("-j changed bmexp report")
	}
}

func TestTestdataPrograms(t *testing.T) {
	code, out, errb := runSched([]string{"-procs", "4", "../../testdata/dotproduct.bb"}, t, "")
	if code != 0 {
		t.Fatalf("dotproduct: exit %d: %s", code, errb)
	}
	if !strings.Contains(out, "Mul") {
		t.Error("dotproduct missing multiplies")
	}
	code, out, errb = runRunCF([]string{"-set", "n=6", "../../testdata/factorial.bb"}, t, "")
	if code != 0 {
		t.Fatalf("factorial: exit %d: %s", code, errb)
	}
	if !strings.Contains(out, "f = 720") {
		t.Errorf("factorial result missing:\n%s", out)
	}
	code, out, errb = runRunCF([]string{"-set", "a=252", "-set", "b=105", "../../testdata/gcd.bb"}, t, "")
	if code != 0 {
		t.Fatalf("gcd: exit %d: %s", code, errb)
	}
	if !strings.Contains(out, "a = 21") {
		t.Errorf("gcd result missing:\n%s", out)
	}
}
