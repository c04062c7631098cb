package cli

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"barriermimd/internal/core"
	"barriermimd/internal/dag"
)

// writeProg writes a basic-block source file into dir and returns its path.
func writeProg(t *testing.T, dir, name, src string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSchedBatchAggregatesErrors(t *testing.T) {
	dir := t.TempDir()
	good := writeProg(t, dir, "good.bb", "c = a + b\nd = c * c\n")
	bad := writeProg(t, dir, "bad.bb", "not a = valid ( program\n")
	missing := filepath.Join(dir, "missing.bb")

	code, out, errb := runSched([]string{"-procs", "4", good, bad, missing}, t, "")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, errb)
	}
	if !strings.Contains(errb, "2 of 3 files failed") {
		t.Errorf("missing failure summary on stderr:\n%s", errb)
	}
	// The valid file must still have been scheduled and reported.
	if !strings.Contains(out, good) || !strings.Contains(out, "span=[") {
		t.Errorf("valid file not scheduled:\n%s", out)
	}
	if strings.Count(out, "FAILED") != 2 {
		t.Errorf("want 2 FAILED lines:\n%s", out)
	}
	if !strings.Contains(out, "(2 failed)") {
		t.Errorf("batch summary missing failure count:\n%s", out)
	}
}

func TestSchedBatchJSONKeepsArrayAligned(t *testing.T) {
	dir := t.TempDir()
	good := writeProg(t, dir, "good.bb", "c = a + b\n")
	missing := filepath.Join(dir, "missing.bb")

	code, out, _ := runSched([]string{"-json", good, missing}, t, "")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if strings.Count(out, `"timelines"`) != 1 || !strings.Contains(out, "null") {
		t.Errorf("JSON array not aligned with the argument list:\n%s", out)
	}
}

func TestSchedRejectsNegativeWorkers(t *testing.T) {
	code, _, errb := runSched([]string{"-j", "-1", "-example"}, t, "")
	if code == 0 {
		t.Fatal("accepted -j -1")
	}
	if !strings.Contains(errb, "-j") {
		t.Errorf("error does not mention -j:\n%s", errb)
	}
}

func TestExpRejectsNegativeWorkers(t *testing.T) {
	code, _, errb := runExpCmd([]string{"-experiment", "fig14", "-j", "-2"}, t, "")
	if code == 0 {
		t.Fatal("accepted -j -2")
	}
	if !strings.Contains(errb, "-j") {
		t.Errorf("error does not mention -j:\n%s", errb)
	}
}

// poisonCache is a core.ScheduleCache that fails every block storing to
// a variable named poison and schedules the rest fresh.
type poisonCache struct{}

func (poisonCache) Schedule(g *dag.Graph, opts core.Options) (*core.Schedule, error) {
	for _, tu := range g.Block.Tuples {
		if tu.Var == "poison" {
			return nil, errors.New("poisoned block")
		}
	}
	return core.ScheduleDAG(g, opts)
}

// TestSchedBatchReportsScheduleErrors: a file that fails to schedule
// must not abort the batch. At every -j value its error is printed as
// "path: err", it counts in the failure summary, it is null in the JSON
// array, and every other file is reported exactly as in a batch where
// nothing fails.
func TestSchedBatchReportsScheduleErrors(t *testing.T) {
	dir := t.TempDir()
	bad := writeProg(t, dir, "bad.bb", "poison = a + b\n")
	good := writeProg(t, dir, "good.bb", "c = a + b\nd = c * c\n")
	other := writeProg(t, dir, "other.bb", "x = y * z\n")
	paths := []string{bad, good, other}

	batch := func(opts core.Options, asJSON bool) (int, string, string) {
		var out, errb strings.Builder
		code := schedBatch(paths, opts, asJSON, &out, &errb)
		return code, out.String(), errb.String()
	}
	fileLines := func(out string) []string {
		return strings.Split(strings.Split(out, "\nbatch:")[0], "\n")
	}
	_, plain, _ := batch(core.DefaultOptions(4), false)
	_, plainJSON, _ := batch(core.DefaultOptions(4), true)
	for _, j := range []int{1, 4} {
		opts := core.DefaultOptions(4)
		opts.Parallelism = j
		opts.Cache = poisonCache{}

		code, out, errb := batch(opts, false)
		if code != 1 {
			t.Fatalf("-j %d: exit %d, want 1\nstderr: %s", j, code, errb)
		}
		if !strings.Contains(errb, "bmsched: "+bad+": poisoned block\n") ||
			!strings.Contains(errb, "1 of 3 files failed") {
			t.Errorf("-j %d: stderr lacks the file's error or the failure count:\n%s", j, errb)
		}
		got, want := fileLines(out), fileLines(plain)
		if !strings.Contains(got[0], "FAILED") {
			t.Errorf("-j %d: failed file not marked:\n%s", j, out)
		}
		if strings.Join(got[1:], "\n") != strings.Join(want[1:], "\n") {
			t.Errorf("-j %d: the failure changed the other files' lines\ngot:\n%s\nwant:\n%s", j, out, plain)
		}

		code, out, _ = batch(opts, true)
		if code != 1 || !strings.HasPrefix(out, "[\nnull,\n") {
			t.Fatalf("-j %d: JSON exit %d, want 1 and a leading null:\n%.200s", j, code, out)
		}
		// Top-level items close with "}" at column 0.
		if strings.TrimPrefix(out, "[\nnull,\n") != strings.SplitN(plainJSON, "\n},\n", 2)[1] {
			t.Errorf("-j %d: the failure changed the other files' JSON", j)
		}
	}
}
