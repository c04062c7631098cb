package exp

import (
	"fmt"
	"strings"

	"barriermimd/internal/core"
	"barriermimd/internal/machine"
	"barriermimd/internal/metrics"
)

// SimDistResult compares the completion-time *distributions* of the two
// barrier machine organizations executing identical schedules: the
// static barrier MIMD (compile-time firing queue) and the dynamic
// barrier MIMD (associative matcher). Each benchmark's schedule is
// compiled into one plan per machine kind and swept over the same
// Config.Lanes timing seeds through the lane-parallel batch kernel, so
// both machines see identical duration draws lane for lane.
type SimDistResult struct {
	// Lanes is the per-benchmark seed-sweep width used.
	Lanes int
	// SBMMean/DBMMean summarize the per-benchmark lane-mean completion
	// times; SBMStd/DBMStd the per-benchmark lane standard deviations
	// (how much random instruction timing spreads one schedule's
	// completion).
	SBMMean, DBMMean metrics.Summary
	SBMStd, DBMStd   metrics.Summary
	// Ratio summarizes the per-benchmark DBM/SBM mean-completion ratio.
	// The DBM can fire any barrier the moment its participants arrive,
	// while the SBM also waits for queue order, so the ratio is ≤ 1.
	Ratio metrics.Summary
}

// SimDist runs the machine-organization distribution comparison on the
// figure 14 population parameters (60 statements, 10 variables, 8 PEs).
func SimDist(cfg Config) (*SimDistResult, error) {
	cfg = cfg.withDefaults()
	sm := make([]float64, cfg.Runs)
	dm := make([]float64, cfg.Runs)
	ss := make([]float64, cfg.Runs)
	ds := make([]float64, cfg.Runs)
	ratio := make([]float64, cfg.Runs)
	err := cfg.forEach(cfg.Runs, func(r int) error {
		seed := cfg.seedAt(0, r)
		s, err := ScheduleOne(60, 10, seed, core.DefaultOptions(8))
		if err != nil {
			return err
		}
		seeds := cfg.laneSeeds(seed)
		var mean [2]float64
		for i, kind := range []core.MachineKind{core.SBM, core.DBM} {
			plan, err := machine.Compile(s, kind)
			if err != nil {
				return err
			}
			br, err := plan.RunMany(machine.Config{Policy: machine.RandomTimes}, seeds)
			if err != nil {
				return err
			}
			mean[i] = br.Summary.Mean
			if kind == core.SBM {
				sm[r], ss[r] = br.Summary.Mean, br.Summary.Std
			} else {
				dm[r], ds[r] = br.Summary.Mean, br.Summary.Std
			}
			br.Release()
		}
		ratio[r] = mean[1] / mean[0]
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &SimDistResult{
		Lanes:   cfg.Lanes,
		SBMMean: metrics.Summarize(sm), DBMMean: metrics.Summarize(dm),
		SBMStd: metrics.Summarize(ss), DBMStd: metrics.Summarize(ds),
		Ratio: metrics.Summarize(ratio),
	}, nil
}

// Render formats the distribution comparison.
func (r *SimDistResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Simulated completion distributions: SBM vs DBM (60 statements, 10 variables, 8 PEs)\n")
	fmt.Fprintf(&sb, "(identical schedules and duration draws; %d timing seeds per benchmark)\n\n", r.Lanes)
	fmt.Fprintf(&sb, "%-24s %14s %14s\n", "machine", "mean finish", "timing stddev")
	fmt.Fprintf(&sb, "%-24s %14.1f %14.1f\n", "static barrier (SBM)", r.SBMMean.Mean, r.SBMStd.Mean)
	fmt.Fprintf(&sb, "%-24s %14.1f %14.1f\n", "dynamic barrier (DBM)", r.DBMMean.Mean, r.DBMStd.Mean)
	fmt.Fprintf(&sb, "\nDBM/SBM completion ratio: mean %.4f (range [%.4f, %.4f])\n",
		r.Ratio.Mean, r.Ratio.Min, r.Ratio.Max)
	fmt.Fprintf(&sb, "(the associative matcher fires barriers the moment their participants\n")
	fmt.Fprintf(&sb, "arrive, so the DBM never completes later than the SBM on the same draws)\n")
	return sb.String()
}

// CSV renders the per-machine summaries as comma-separated series.
func (r *SimDistResult) CSV() string {
	var sb strings.Builder
	sb.WriteString("machine,mean_finish,timing_stddev\n")
	fmt.Fprintf(&sb, "sbm,%.3f,%.3f\n", r.SBMMean.Mean, r.SBMStd.Mean)
	fmt.Fprintf(&sb, "dbm,%.3f,%.3f\n", r.DBMMean.Mean, r.DBMStd.Mean)
	return sb.String()
}
