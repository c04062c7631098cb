package exp

import (
	"fmt"
	"strings"

	"barriermimd/internal/core"
	"barriermimd/internal/metrics"
)

// StudyResult reproduces the paper's whole-study summary (section 5): more
// than 3500 synthetic benchmarks scheduled across the full parameter grid,
// with the global ranges of the three synchronization fractions. The paper
// reports, over all programs:
//
//	barrier fraction      3% – 23%
//	serialized fraction  50% – 90%
//	static fraction       8% – 40%
type StudyResult struct {
	// Benchmarks is the total number of benchmarks scheduled.
	Benchmarks int
	// Configurations is the number of (statements, variables, processors)
	// grid points.
	Configurations int
	// Barrier, Serialized, Static summarize per-configuration mean
	// fractions (the paper's per-point averages of 100 benchmarks).
	Barrier, Serialized, Static metrics.Summary
	// NoRuntimeSync summarizes serialized+static per configuration.
	NoRuntimeSync metrics.Summary
}

// Study sweeps the full parameter grid of section 2.2 — statements 5–60,
// variables 2–15, processors 2–128 — averaging cfg.Runs benchmarks per
// point, mirroring how the paper's 3500+ benchmark study was assembled
// (each published point is an average of 100 benchmarks).
func Study(cfg Config) (*StudyResult, error) {
	cfg = cfg.withDefaults()
	res := &StudyResult{}
	var bar, ser, sta, noSync []float64
	grid := 0
	for _, stmts := range []int{5, 20, 40, 60} {
		for _, vars := range []int{2, 5, 10, 15} {
			for _, procs := range []int{2, 8, 32, 128} {
				grid++
				gridID, procs := grid, procs
				bs := make([]float64, cfg.Runs)
				ss := make([]float64, cfg.Runs)
				ts := make([]float64, cfg.Runs)
				counted := make([]bool, cfg.Runs)
				err := cfg.forEach(cfg.Runs, func(r int) error {
					sched, err := ScheduleOne(stmts, vars, cfg.seedAt(gridID, r), core.DefaultOptions(procs))
					if err != nil {
						return err
					}
					m := sched.Metrics
					if m.TotalImpliedSyncs == 0 {
						return nil // degenerate tiny benchmark
					}
					bs[r] = m.BarrierFraction()
					ss[r] = m.SerializedFraction()
					ts[r] = m.StaticFraction()
					counted[r] = true
					return nil
				})
				if err != nil {
					return nil, err
				}
				var b, s, t float64
				for r := 0; r < cfg.Runs; r++ {
					if counted[r] {
						b += bs[r]
						s += ss[r]
						t += ts[r]
						res.Benchmarks++
					}
				}
				n := float64(cfg.Runs)
				bar = append(bar, b/n)
				ser = append(ser, s/n)
				sta = append(sta, t/n)
				noSync = append(noSync, (s+t)/n)
			}
		}
	}
	res.Configurations = grid
	res.Barrier = metrics.Summarize(bar)
	res.Serialized = metrics.Summarize(ser)
	res.Static = metrics.Summarize(sta)
	res.NoRuntimeSync = metrics.Summarize(noSync)
	return res, nil
}

// Render formats the whole-study summary against the paper's ranges.
func (r *StudyResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Section 5 whole-study summary: %d benchmarks over %d parameter points\n", r.Benchmarks, r.Configurations)
	fmt.Fprintf(&sb, "(statements 5-60 × variables 2-15 × processors 2-128)\n\n")
	fmt.Fprintf(&sb, "%-22s %16s %16s\n", "fraction", "paper range", "measured range")
	row := func(name, paper string, s metrics.Summary) {
		fmt.Fprintf(&sb, "%-22s %16s %7.0f%% – %3.0f%%\n", name, paper, 100*s.Min, 100*s.Max)
	}
	row("barrier", "3% – 23%", r.Barrier)
	row("serialized", "50% – 90%", r.Serialized)
	row("static", "8% – 40%", r.Static)
	fmt.Fprintf(&sb, "\nserialized+static per configuration: mean %.1f%% (min %.1f%%, max %.1f%%)\n",
		100*r.NoRuntimeSync.Mean, 100*r.NoRuntimeSync.Min, 100*r.NoRuntimeSync.Max)
	fmt.Fprintf(&sb, "paper: >77%% of synchronizations need no runtime synchronization;\n")
	fmt.Fprintf(&sb, "the scatter's center of mass lies near the 85%% line.\n")
	return sb.String()
}
