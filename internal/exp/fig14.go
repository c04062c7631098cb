package exp

import (
	"fmt"
	"strings"

	"barriermimd/internal/core"
	"barriermimd/internal/metrics"
	"barriermimd/internal/plot"
)

// Fig14Result is the scatter of figure 14 plus the section 5 headline
// ranges: each benchmark contributes one (static fraction, serialized
// fraction) point; the paper reports the center of mass near the 85% line
// (serialized + static ≈ 0.85) and, overall, more than 77% of
// synchronizations needing no runtime synchronization.
type Fig14Result struct {
	// StaticFrac and SerialFrac are per-benchmark fractions (x and y of
	// the scatter).
	StaticFrac, SerialFrac []float64
	// BarrierFrac is the per-benchmark barrier fraction.
	BarrierFrac []float64
	// Syncs is each benchmark's total implied synchronizations.
	Syncs []int
	// NoRuntimeSync summarizes serialized+static per benchmark.
	NoRuntimeSync metrics.Summary
}

// Fig14 schedules a population of benchmarks whose sync counts fall in the
// paper's 65–132 band (60-statement, 10-variable blocks on 8 processors)
// and collects the scatter.
func Fig14(cfg Config) (*Fig14Result, error) {
	cfg = cfg.withDefaults()
	res := &Fig14Result{}
	var noSync []float64

	// Candidates are evaluated in parallel batches but accepted strictly
	// in seed order, so the population is identical to a serial scan.
	type cand struct {
		ok                      bool
		tis                     int
		static, serial, barrier float64
	}
	accepted := 0
	for start := 0; accepted < cfg.Runs; start += cfg.Runs {
		if start > cfg.Runs*10 {
			return nil, fmt.Errorf("exp: could not find %d in-band benchmarks", cfg.Runs)
		}
		batch := make([]cand, cfg.Runs)
		err := cfg.forEach(len(batch), func(j int) error {
			seed := cfg.seedAt(0, start+j)
			g, err := BuildDAG(60, 10, seed)
			if err != nil {
				return err
			}
			tis := g.TotalImpliedSynchronizations()
			if tis < 65 || tis > 132 {
				return nil // outside the published population band
			}
			opts := core.DefaultOptions(8)
			opts.Seed = seed
			s, err := core.ScheduleDAG(g, opts)
			if err != nil {
				return err
			}
			m := s.Metrics
			batch[j] = cand{
				ok: true, tis: tis,
				static: m.StaticFraction(), serial: m.SerializedFraction(), barrier: m.BarrierFraction(),
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, c := range batch {
			if !c.ok || accepted >= cfg.Runs {
				continue
			}
			res.StaticFrac = append(res.StaticFrac, c.static)
			res.SerialFrac = append(res.SerialFrac, c.serial)
			res.BarrierFrac = append(res.BarrierFrac, c.barrier)
			res.Syncs = append(res.Syncs, c.tis)
			noSync = append(noSync, c.static+c.serial)
			accepted++
		}
	}
	res.NoRuntimeSync = metrics.Summarize(noSync)
	return res, nil
}

// Render draws the scatter and the headline statistics.
func (r *Fig14Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 14: Scatter Plot (benchmarks contain from 65 to 132 syncs)\n\n")
	c := plot.Chart{
		XLabel: "statically scheduled fraction",
		W:      64, H: 20,
		Series: []plot.Line{{Name: "benchmark", Xs: r.StaticFrac, Ys: r.SerialFrac}},
	}
	c.FitYTo(0, 1)
	sb.WriteString(c.Render())
	sb.WriteString("          (y axis: serialization fraction)\n\n")

	bar := metrics.Summarize(r.BarrierFrac)
	ser := metrics.Summarize(r.SerialFrac)
	sta := metrics.Summarize(r.StaticFrac)
	fmt.Fprintf(&sb, "population: %d benchmarks\n", len(r.Syncs))
	fmt.Fprintf(&sb, "  barrier fraction:     %s\n", bar)
	fmt.Fprintf(&sb, "  serialized fraction:  %s\n", ser)
	fmt.Fprintf(&sb, "  static fraction:      %s\n", sta)
	fmt.Fprintf(&sb, "  serialized+static:    %s\n", r.NoRuntimeSync)
	fmt.Fprintf(&sb, "\npaper: barrier 3–23%%, serialized 50–90%%, static 8–40%%;\n")
	fmt.Fprintf(&sb, "center of mass near the 85%% line; >77%% without runtime synchronization.\n")
	fmt.Fprintf(&sb, "measured: mean serialized+static = %.1f%% (min %.1f%%)\n",
		100*r.NoRuntimeSync.Mean, 100*r.NoRuntimeSync.Min)
	return sb.String()
}

// CSV renders the per-benchmark scatter points.
func (r *Fig14Result) CSV() string {
	var sb strings.Builder
	sb.WriteString("static_fraction,serialized_fraction,barrier_fraction,syncs\n")
	for i := range r.StaticFrac {
		fmt.Fprintf(&sb, "%.6f,%.6f,%.6f,%d\n",
			r.StaticFrac[i], r.SerialFrac[i], r.BarrierFrac[i], r.Syncs[i])
	}
	return sb.String()
}
