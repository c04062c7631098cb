package exp

import (
	"fmt"
	"strings"

	"barriermimd/internal/core"
	"barriermimd/internal/machine"
	"barriermimd/internal/metrics"
	"barriermimd/internal/plot"
	"barriermimd/internal/vliw"
)

// Fig18Result compares VLIW and barrier MIMD completion times for
// 60-statement, 10-variable benchmarks across machine sizes (section 6).
// Barrier times are normalized to the VLIW completion time per benchmark,
// then averaged; the paper reports barrier max ≈ VLIW and barrier min
// about 25% lower.
type Fig18Result struct {
	Processors []int
	// BarrierMax and BarrierMin are the normalized mean completion times.
	BarrierMax metrics.Series
	BarrierMin metrics.Series
	// BarrierSim is the normalized mean *simulated* completion time under
	// random instruction timings: a Config.Lanes-wide seed sweep through
	// the compiled plan per benchmark. It lands between the static
	// min/max envelope and shows where executions actually concentrate.
	BarrierSim metrics.Series
	// VLIWAbs is the mean absolute VLIW makespan per point (for context).
	VLIWAbs metrics.Series
}

// Fig18 runs the section 6 comparison.
func Fig18(cfg Config) (*Fig18Result, error) {
	cfg = cfg.withDefaults()
	res := &Fig18Result{Processors: []int{2, 4, 8, 12, 16}}
	res.BarrierMax.Name = "barrier max / VLIW"
	res.BarrierMin.Name = "barrier min / VLIW"
	res.BarrierSim.Name = "barrier sim / VLIW"
	res.VLIWAbs.Name = "VLIW makespan"
	for k, procs := range res.Processors {
		k, procs := k, procs
		maxN := make([]float64, cfg.Runs)
		minN := make([]float64, cfg.Runs)
		simN := make([]float64, cfg.Runs)
		vabs := make([]float64, cfg.Runs)
		err := cfg.forEach(cfg.Runs, func(r int) error {
			seed := cfg.seedAt(k, r)
			g, err := BuildDAG(60, 10, seed)
			if err != nil {
				return err
			}
			v, err := vliw.Schedule(g, procs)
			if err != nil {
				return err
			}
			opts := core.DefaultOptions(procs)
			opts.Seed = seed
			s, err := core.ScheduleDAG(g, opts)
			if err != nil {
				return err
			}
			mn, mx, err := s.StaticSpan()
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
			maxN[r] = float64(mx) / float64(v.Makespan)
			minN[r] = float64(mn) / float64(v.Makespan)
			simN[r] = br.Summary.Mean / float64(v.Makespan)
			vabs[r] = float64(v.Makespan)
			br.Release()
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.BarrierMax.Add(float64(procs), maxN)
		res.BarrierMin.Add(float64(procs), minN)
		res.BarrierSim.Add(float64(procs), simN)
		res.VLIWAbs.Add(float64(procs), vabs)
	}
	return res, nil
}

// Render draws the normalized curves.
func (r *Fig18Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 18: VLIW vs Barrier Architecture (60 statements, 10 variables)\n")
	fmt.Fprintf(&sb, "(execution time normalized to VLIW = 1.0)\n\n")
	mx, my := r.BarrierMax.Means()
	nx, ny := r.BarrierMin.Means()
	sx, sy := r.BarrierSim.Means()
	vliwLine := make([]float64, len(mx))
	for i := range vliwLine {
		vliwLine[i] = 1
	}
	c := plot.Chart{
		XLabel: "processors",
		W:      64, H: 16,
		Series: []plot.Line{
			{Name: "barrier max", Xs: mx, Ys: my},
			{Name: "barrier sim", Xs: sx, Ys: sy},
			{Name: "barrier min", Xs: nx, Ys: ny},
			{Name: "VLIW", Xs: mx, Ys: vliwLine},
		},
	}
	c.FitYTo(0, 1.5)
	sb.WriteString(c.Render())
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "%-10s %14s %14s %14s %14s\n", "processors", "barrier max", "barrier sim", "barrier min", "VLIW makespan")
	_, va := r.VLIWAbs.Means()
	for i := range mx {
		fmt.Fprintf(&sb, "%-10.0f %14.3f %14.3f %14.3f %14.1f\n", mx[i], my[i], sy[i], ny[i], va[i])
	}
	fmt.Fprintf(&sb, "\npaper: barrier max ≈ VLIW (slightly above on few processors);\n")
	fmt.Fprintf(&sb, "barrier min ≈ 25%% below VLIW. 'barrier sim' is the simulated\n")
	fmt.Fprintf(&sb, "random-timing mean, inside the static [min,max] envelope.\n")
	return sb.String()
}

// CSV renders the comparison as comma-separated series.
func (r *Fig18Result) CSV() string {
	var sb strings.Builder
	sb.WriteString("processors,barrier_max_norm,barrier_sim_norm,barrier_min_norm,vliw_makespan\n")
	mx, my := r.BarrierMax.Means()
	_, sy := r.BarrierSim.Means()
	_, ny := r.BarrierMin.Means()
	_, va := r.VLIWAbs.Means()
	for i := range mx {
		fmt.Fprintf(&sb, "%g,%.6f,%.6f,%.6f,%.3f\n", mx[i], my[i], sy[i], ny[i], va[i])
	}
	return sb.String()
}
