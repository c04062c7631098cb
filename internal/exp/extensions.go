package exp

import (
	"fmt"
	"strings"

	"barriermimd/internal/core"
	"barriermimd/internal/machine"
	"barriermimd/internal/metrics"
	"barriermimd/internal/mimd"
)

// MIMDResult quantifies the paper's motivating comparison and the
// conclusion's proposed application: runtime synchronization operations
// needed by a conventional MIMD for the same instruction placement —
// naive (one directed sync per cross-processor dependence), after
// Shaffer-style transitive reduction, and on the barrier MIMD (one barrier
// per residual synchronization point) — plus completion times under
// random instruction timings.
type MIMDResult struct {
	// NaiveSyncs, ReducedSyncs, Barriers are runtime sync operations per
	// schedule for each machine.
	NaiveSyncs, ReducedSyncs, Barriers metrics.Summary
	// NaiveTime, ReducedTime, BarrierTime are mean completion times under
	// random timings (conventional machines pay a 1-cycle send per sync
	// and 1–8 cycles of network latency per token; barriers are free).
	// BarrierTime averages a Config.Lanes-wide seed sweep per benchmark
	// through the lane-parallel batch kernel.
	NaiveTime, ReducedTime, BarrierTime metrics.Summary
}

// MIMD runs the conventional-MIMD comparison on the figure 14 population
// parameters (60 statements, 10 variables, 8 processors).
func MIMD(cfg Config) (*MIMDResult, error) {
	cfg = cfg.withDefaults()
	ns := make([]float64, cfg.Runs)
	rs := make([]float64, cfg.Runs)
	bs := make([]float64, cfg.Runs)
	nt := make([]float64, cfg.Runs)
	rt := make([]float64, cfg.Runs)
	bt := make([]float64, cfg.Runs)
	err := cfg.forEach(cfg.Runs, func(r int) error {
		seed := cfg.seedAt(0, r)
		s, err := ScheduleOne(60, 10, seed, core.DefaultOptions(8))
		if err != nil {
			return err
		}
		naive := mimd.NewPlan(s, false)
		reduced := mimd.NewPlan(s, true)
		ns[r] = float64(len(naive.Syncs))
		rs[r] = float64(len(reduced.Syncs))
		bs[r] = float64(s.NumBarriers())

		nr, err := naive.Simulate(mimd.Config{Seed: seed})
		if err != nil {
			return err
		}
		rr, err := reduced.Simulate(mimd.Config{Seed: seed})
		if err != nil {
			return err
		}
		plan, err := machine.Compile(s, s.Opts.Machine)
		if err != nil {
			return err
		}
		br, err := plan.RunMany(machine.Config{Policy: machine.RandomTimes}, cfg.laneSeeds(seed))
		if err != nil {
			return err
		}
		nt[r] = float64(nr.FinishTime)
		rt[r] = float64(rr.FinishTime)
		bt[r] = br.Summary.Mean
		br.Release()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &MIMDResult{
		NaiveSyncs: metrics.Summarize(ns), ReducedSyncs: metrics.Summarize(rs), Barriers: metrics.Summarize(bs),
		NaiveTime: metrics.Summarize(nt), ReducedTime: metrics.Summarize(rt), BarrierTime: metrics.Summarize(bt),
	}, nil
}

// Render formats the conventional-MIMD comparison.
func (r *MIMDResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Conventional MIMD vs Barrier MIMD (60 statements, 10 variables, 8 PEs)\n")
	fmt.Fprintf(&sb, "(same instruction placement; directed syncs cost 1 send cycle + 1-8 network latency)\n\n")
	fmt.Fprintf(&sb, "%-28s %12s %14s\n", "machine", "sync ops", "completion")
	fmt.Fprintf(&sb, "%-28s %12.1f %14.1f\n", "conventional (all edges)", r.NaiveSyncs.Mean, r.NaiveTime.Mean)
	fmt.Fprintf(&sb, "%-28s %12.1f %14.1f\n", "conventional (reduced)", r.ReducedSyncs.Mean, r.ReducedTime.Mean)
	fmt.Fprintf(&sb, "%-28s %12.1f %14.1f\n", "barrier MIMD (barriers)", r.Barriers.Mean, r.BarrierTime.Mean)
	elim := 1 - r.Barriers.Mean/r.NaiveSyncs.Mean
	fmt.Fprintf(&sb, "\nruntime sync operations eliminated by barrier scheduling: %.1f%%\n", 100*elim)
	fmt.Fprintf(&sb, "(relative to the conventional machine's cross-processor sync ops — a\n")
	fmt.Fprintf(&sb, "stricter denominator than the paper's 'total implied synchronizations',\n")
	fmt.Fprintf(&sb, "which also counts serialized edges; with the paper's denominator the\n")
	fmt.Fprintf(&sb, "barrier machine avoids runtime synchronization for >77%% of all pairs)\n")
	return sb.String()
}

// BarrierCostResult measures completion-time sensitivity to the hardware
// barrier latency, exploring the zero-cost assumption of section 5 against
// the costed designs of the companion hardware paper [OKDi90].
type BarrierCostResult struct {
	Costs []int
	// Completion holds mean random-timing completion per cost.
	Completion metrics.Series
	// Barriers is the mean barrier count of the underlying schedules.
	Barriers metrics.Summary
}

// BarrierCost sweeps the per-barrier hardware latency. Each benchmark's
// schedule is compiled into a simulation plan once; each cost point then
// sweeps a Config.Lanes-wide seed batch through every plan via the
// lane-parallel kernel (trials fan across the worker pool on top),
// recycling all per-run state.
func BarrierCost(cfg Config) (*BarrierCostResult, error) {
	cfg = cfg.withDefaults()
	res := &BarrierCostResult{Costs: []int{0, 1, 2, 4, 8, 16}}
	res.Completion.Name = "completion"
	bars := make([]float64, cfg.Runs)
	plans := make([]*machine.Plan, cfg.Runs)
	err := cfg.forEach(cfg.Runs, func(r int) error {
		s, err := ScheduleOne(60, 10, cfg.seedAt(0, r), core.DefaultOptions(8))
		if err != nil {
			return err
		}
		plans[r], err = machine.Compile(s, s.Opts.Machine)
		if err != nil {
			return err
		}
		bars[r] = float64(s.NumBarriers())
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Barriers = metrics.Summarize(bars)
	for _, cost := range res.Costs {
		ts := make([]float64, cfg.Runs)
		err := cfg.forEach(cfg.Runs, func(i int) error {
			// Per-seed completion is monotone in cost (the fire order is
			// cost-independent), so the lane mean inherits the paper's
			// monotone sensitivity curve.
			br, err := plans[i].RunMany(machine.Config{
				Policy: machine.RandomTimes, BarrierCost: cost,
			}, cfg.laneSeeds(int64(i)))
			if err != nil {
				return err
			}
			ts[i] = br.Summary.Mean
			br.Release()
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.Completion.Add(float64(cost), ts)
	}
	return res, nil
}

// Render formats the sensitivity table.
func (r *BarrierCostResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Barrier hardware cost sensitivity (60 statements, 10 variables, 8 PEs)\n")
	fmt.Fprintf(&sb, "(schedules average %.1f barriers; section 5 assumes zero-cost barriers)\n\n", r.Barriers.Mean)
	xs, ys := r.Completion.Means()
	base := ys[0]
	fmt.Fprintf(&sb, "%-14s %14s %10s\n", "barrier cost", "completion", "overhead")
	for i := range xs {
		fmt.Fprintf(&sb, "%-14.0f %14.1f %9.1f%%\n", xs[i], ys[i], 100*(ys[i]/base-1))
	}
	return sb.String()
}
