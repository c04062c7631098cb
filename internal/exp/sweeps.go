package exp

import (
	"fmt"
	"strings"

	"barriermimd/internal/core"
	"barriermimd/internal/metrics"
	"barriermimd/internal/plot"
)

// FractionSweep holds the three synchronization-fraction curves of figures
// 15, 16 and 17 over one swept parameter.
type FractionSweep struct {
	Title   string
	XLabel  string
	Barrier metrics.Series
	Serial  metrics.Series
	Static  metrics.Series
}

// point describes one sweep point's workload.
type point struct {
	x     int
	stmts int
	vars  int
	procs int
}

// sweepFractions schedules cfg.Runs benchmarks at every point and
// aggregates the three fractions.
func sweepFractions(cfg Config, title, xlabel string, points []point) (*FractionSweep, error) {
	cfg = cfg.withDefaults()
	res := &FractionSweep{Title: title, XLabel: xlabel}
	res.Barrier.Name = "barrier"
	res.Serial.Name = "serialized"
	res.Static.Name = "static"
	for k, pt := range points {
		k, pt := k, pt
		bs := make([]float64, cfg.Runs)
		ss := make([]float64, cfg.Runs)
		ts := make([]float64, cfg.Runs)
		err := cfg.forEach(cfg.Runs, func(r int) error {
			s, err := ScheduleOne(pt.stmts, pt.vars, cfg.seedAt(k, r), core.DefaultOptions(pt.procs))
			if err != nil {
				return err
			}
			m := s.Metrics
			bs[r] = m.BarrierFraction()
			ss[r] = m.SerializedFraction()
			ts[r] = m.StaticFraction()
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.Barrier.Add(float64(pt.x), bs)
		res.Serial.Add(float64(pt.x), ss)
		res.Static.Add(float64(pt.x), ts)
	}
	return res, nil
}

// Render draws the three curves and a table of means.
func (r *FractionSweep) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n\n", r.Title)
	bx, by := r.Barrier.Means()
	sx, sy := r.Serial.Means()
	tx, ty := r.Static.Means()
	c := plot.Chart{
		XLabel: r.XLabel,
		W:      64, H: 18,
		Series: []plot.Line{
			{Name: "barrier", Xs: bx, Ys: by},
			{Name: "serialized", Xs: sx, Ys: sy},
			{Name: "static", Xs: tx, Ys: ty},
		},
	}
	c.FitYTo(0, 1)
	sb.WriteString(c.Render())
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "%-10s %10s %12s %10s\n", r.XLabel, "barrier", "serialized", "static")
	for i := range bx {
		fmt.Fprintf(&sb, "%-10.0f %9.1f%% %11.1f%% %9.1f%%\n", bx[i], 100*by[i], 100*sy[i], 100*ty[i])
	}
	return sb.String()
}

// Fig15 varies the number of assignment statements with 8 processors and
// 15 variables (section 5.1).
func Fig15(cfg Config) (*FractionSweep, error) {
	var pts []point
	for _, n := range []int{5, 10, 15, 20, 30, 40, 50, 60} {
		pts = append(pts, point{x: n, stmts: n, vars: 15, procs: 8})
	}
	return sweepFractions(cfg, "Figure 15: Sync Fractions for 8 Processors and 15 Variables", "statements", pts)
}

// Fig16 varies the number of variables with 60 statements and 8 processors
// (section 5.2).
func Fig16(cfg Config) (*FractionSweep, error) {
	var pts []point
	for v := 2; v <= 15; v++ {
		pts = append(pts, point{x: v, stmts: 60, vars: v, procs: 8})
	}
	return sweepFractions(cfg, "Figure 16: Sync Fractions for 8 Processors and 60 Statements", "variables", pts)
}

// Fig17 varies the number of processors with 100 statements and 10
// variables (section 5.3).
func Fig17(cfg Config) (*FractionSweep, error) {
	var pts []point
	for _, p := range []int{2, 4, 8, 16, 32, 64, 128} {
		pts = append(pts, point{x: p, stmts: 100, vars: 10, procs: p})
	}
	return sweepFractions(cfg, "Figure 17: Sync Fractions for 100 Statements and 10 Variables", "processors", pts)
}

// CSV renders the sweep as comma-separated series for external plotting:
// one row per x value with the three mean fractions.
func (r *FractionSweep) CSV() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s,barrier,serialized,static\n", strings.ReplaceAll(r.XLabel, " ", "_"))
	bx, by := r.Barrier.Means()
	_, sy := r.Serial.Means()
	_, ty := r.Static.Means()
	for i := range bx {
		fmt.Fprintf(&sb, "%g,%.6f,%.6f,%.6f\n", bx[i], by[i], sy[i], ty[i])
	}
	return sb.String()
}
