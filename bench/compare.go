package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// readRecords reads the per-workload lines of one or more all-workload
// runs (bench/run.sh >> FILE), keeping their order.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Workload == "" || r.Trace {
			continue // the environment line, or a traced run
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}

// minPairs is the fewest parent/change pairs a verdict may rest on.
const minPairs = 10

// verdict classifies one (workload, metric) pair of run sets, parent a
// against change b, by the rule of README.md: "better" needs the change
// to win at least nine tenths of the pairs and its median to beat the
// parent's by more than the parent's interquartile range; "worse" means
// the change's median is worse than the parent's by more than the bound;
// a parent spread wider than the bound leaves the rest "unresolved".
func verdict(a, b []float64, higherIsBetter bool, bound float64) (v string, wins int) {
	n := min(len(a), len(b))
	a, b = a[:n], b[:n]
	sign := -1.0
	if higherIsBetter {
		sign = 1
	}
	for i := range a {
		if sign*(b[i]-a[i]) > 0 {
			wins++
		}
	}
	if n < minPairs {
		return "unresolved", wins
	}
	ma, mb := median(a), median(b)
	q1, q3 := quartiles(a)
	gain := sign * (mb - ma)
	switch {
	case 10*wins >= 9*n && gain > q3-q1:
		return "better", wins
	case -gain > bound*math.Abs(ma):
		return "worse", wins
	case (q3 - q1) > bound*math.Abs(ma):
		return "unresolved", wins
	}
	return "same", wins
}

// runCompare implements "compare A B": A holds the parent's runs and B
// the change's, each a file of all-workload output lines, paired in
// order. It exits 1 if any metric reads worse.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-benchmark BENCHMARK.json] PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	bf, err := readBenchmarkFile(*bench)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	sides := make([]map[string][]record, 2)
	for i, p := range fs.Args() {
		if sides[i], err = readRecords(p); err != nil {
			fmt.Fprintln(stderr, "bench compare:", err)
			return 2
		}
	}
	status := 0
	fmt.Fprintf(stdout, "%-15s %-14s %5s %12s %25s %12s %25s %6s  %s\n",
		"workload", "metric", "pairs", "parent", "parent q1..q3", "change", "change q1..q3", "wins", "verdict")
	for _, w := range bf.Workloads {
		a, b := sides[0][w.Name], sides[1][w.Name]
		n := min(len(a), len(b))
		for _, e := range bf.EndToEnd {
			va, vb := values(a[:n], e.Name), values(b[:n], e.Name)
			v, wins := verdict(va, vb, e.Better == "higher", e.Bound)
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(stdout, "%-15s %-14s %5d %12s %25s %12s %25s %6s  %s\n",
				w.Name, e.Name, n, num(median(va)), quartileText(va), num(median(vb)), quartileText(vb), fmt.Sprintf("%d/%d", wins, n), v)
		}
	}
	if n := pairsOf(sides); n < minPairs {
		fmt.Fprintf(stdout, "only %d pairs: a verdict needs at least %d alternating parent/change pairs\n", n, minPairs)
	}
	return status
}

func values(rs []record, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.Metrics[name].Value)
	}
	return out
}

func num(x float64) string {
	if math.IsNaN(x) {
		return "-"
	}
	return fmt.Sprintf("%.4g", x)
}

func quartileText(xs []float64) string {
	if len(xs) < 2 {
		return "-"
	}
	q1, q3 := quartiles(xs)
	return num(q1) + ".." + num(q3)
}

func pairsOf(sides []map[string][]record) int {
	n := -1
	for w, a := range sides[0] {
		if k := min(len(a), len(sides[1][w])); n < 0 || k < n {
			n = k
		}
	}
	return max(n, 0)
}
