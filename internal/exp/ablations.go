package exp

import (
	"fmt"
	"strings"

	"barriermimd/internal/core"
	"barriermimd/internal/ir"
	"barriermimd/internal/metrics"
)

// MergeResult reproduces the section 4.4.3 statistic: for 80-statement,
// 10-variable benchmarks, merging barriers (SBM) versus not (DBM).
// The paper reports 35% fewer barriers with merging, a higher static
// fraction, and slightly longer SBM completion times.
type MergeResult struct {
	SBMBarriers, DBMBarriers metrics.Summary
	SBMStatic, DBMStatic     metrics.Summary
	SBMMaxSpan, DBMMaxSpan   metrics.Summary
	// SBMWidth and DBMWidth are mean participants per barrier: merging
	// produces "larger barriers", which is what raises the static
	// scheduling fraction (section 4.4.3).
	SBMWidth, DBMWidth metrics.Summary
	Reduction          float64 // 1 - SBM/DBM mean barriers
}

// Merge runs the merging ablation.
func Merge(cfg Config) (*MergeResult, error) {
	cfg = cfg.withDefaults()
	sb := make([]float64, cfg.Runs)
	db := make([]float64, cfg.Runs)
	ss := make([]float64, cfg.Runs)
	ds := make([]float64, cfg.Runs)
	sm := make([]float64, cfg.Runs)
	dm := make([]float64, cfg.Runs)
	sw := make([]float64, cfg.Runs)
	dw := make([]float64, cfg.Runs)
	meanWidth := func(s *core.Schedule) float64 {
		total, n := 0, 0
		for id, parts := range s.Participants {
			if id == core.InitialBarrier || parts == nil {
				continue
			}
			total += len(parts)
			n++
		}
		if n == 0 {
			return 0
		}
		return float64(total) / float64(n)
	}
	err := cfg.forEach(cfg.Runs, func(r int) error {
		seed := cfg.seedAt(0, r)
		g, err := BuildDAG(80, 10, seed)
		if err != nil {
			return err
		}
		so := core.DefaultOptions(8)
		so.Seed = seed
		s, err := core.ScheduleDAG(g, so)
		if err != nil {
			return err
		}
		do := so
		do.Machine = core.DBM
		d, err := core.ScheduleDAG(g, do)
		if err != nil {
			return err
		}
		sb[r] = float64(s.NumBarriers())
		db[r] = float64(d.NumBarriers())
		ss[r] = s.Metrics.StaticFraction()
		ds[r] = d.Metrics.StaticFraction()
		_, smx, err := s.StaticSpan()
		if err != nil {
			return err
		}
		_, dmx, err := d.StaticSpan()
		if err != nil {
			return err
		}
		sm[r] = float64(smx)
		dm[r] = float64(dmx)
		sw[r] = meanWidth(s)
		dw[r] = meanWidth(d)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &MergeResult{
		SBMBarriers: metrics.Summarize(sb), DBMBarriers: metrics.Summarize(db),
		SBMStatic: metrics.Summarize(ss), DBMStatic: metrics.Summarize(ds),
		SBMMaxSpan: metrics.Summarize(sm), DBMMaxSpan: metrics.Summarize(dm),
		SBMWidth: metrics.Summarize(sw), DBMWidth: metrics.Summarize(dw),
	}
	if res.DBMBarriers.Mean > 0 {
		res.Reduction = 1 - res.SBMBarriers.Mean/res.DBMBarriers.Mean
	}
	return res, nil
}

// Render formats the merging comparison.
func (r *MergeResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Section 4.4.3: Barrier Merging (80 statements, 10 variables, 8 processors)\n\n")
	fmt.Fprintf(&sb, "%-24s %12s %12s\n", "", "SBM (merge)", "DBM (none)")
	fmt.Fprintf(&sb, "%-24s %12.2f %12.2f\n", "barriers per schedule", r.SBMBarriers.Mean, r.DBMBarriers.Mean)
	fmt.Fprintf(&sb, "%-24s %11.1f%% %11.1f%%\n", "static fraction", 100*r.SBMStatic.Mean, 100*r.DBMStatic.Mean)
	fmt.Fprintf(&sb, "%-24s %12.1f %12.1f\n", "max completion time", r.SBMMaxSpan.Mean, r.DBMMaxSpan.Mean)
	fmt.Fprintf(&sb, "%-24s %12.2f %12.2f\n", "participants per barrier", r.SBMWidth.Mean, r.DBMWidth.Mean)
	fmt.Fprintf(&sb, "\nbarrier reduction from merging: %.1f%% (paper: 35%%)\n", 100*r.Reduction)
	return sb.String()
}

// HeuristicsResult reproduces the section 5.4 heuristic analysis: list vs
// round-robin assignment, h_max-first vs h_min-first ordering, lookahead,
// and instruction-timing-variation sensitivity.
type HeuristicsResult struct {
	// Rows are labeled aggregate outcomes per variant.
	Rows []HeuristicRow
}

// HeuristicRow is one variant's aggregate metrics.
type HeuristicRow struct {
	Name       string
	Barrier    metrics.Summary
	Serialized metrics.Summary
	MinSpan    metrics.Summary
	MaxSpan    metrics.Summary
}

// Heuristics runs the section 5.4 ablations on 60-statement, 10-variable
// benchmarks with 8 processors.
func Heuristics(cfg Config) (*HeuristicsResult, error) {
	cfg = cfg.withDefaults()
	variants := []struct {
		name string
		mod  func(*core.Options)
		tm   ir.TimingModel
	}{
		{"list (paper)", func(o *core.Options) {}, ir.DefaultTimings()},
		{"round-robin", func(o *core.Options) { o.Assignment = core.RoundRobin }, ir.DefaultTimings()},
		{"hmin-first", func(o *core.Options) { o.Ordering = core.MinHeightFirst }, ir.DefaultTimings()},
		{"lookahead-5", func(o *core.Options) { o.Lookahead = 5 }, ir.DefaultTimings()},
		{"timing-var x3", func(o *core.Options) {}, ir.DefaultTimings().Scaled(3)},
	}
	res := &HeuristicsResult{}
	for _, v := range variants {
		v := v
		bf := make([]float64, cfg.Runs)
		sf := make([]float64, cfg.Runs)
		mns := make([]float64, cfg.Runs)
		mxs := make([]float64, cfg.Runs)
		err := cfg.forEach(cfg.Runs, func(r int) error {
			seed := cfg.seedAt(0, r)
			g, err := BuildDAGTimed(60, 10, seed, v.tm)
			if err != nil {
				return err
			}
			o := core.DefaultOptions(8)
			o.Seed = seed
			v.mod(&o)
			s, err := core.ScheduleDAG(g, o)
			if err != nil {
				return err
			}
			bf[r] = s.Metrics.BarrierFraction()
			sf[r] = s.Metrics.SerializedFraction()
			mn, mx, err := s.StaticSpan()
			if err != nil {
				return err
			}
			mns[r] = float64(mn)
			mxs[r] = float64(mx)
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, HeuristicRow{
			Name:       v.name,
			Barrier:    metrics.Summarize(bf),
			Serialized: metrics.Summarize(sf),
			MinSpan:    metrics.Summarize(mns),
			MaxSpan:    metrics.Summarize(mxs),
		})
	}
	return res, nil
}

// Render formats the ablation table.
func (r *HeuristicsResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Section 5.4: Analysis of the Heuristics (60 statements, 10 variables, 8 PEs)\n\n")
	fmt.Fprintf(&sb, "%-14s %10s %12s %10s %10s\n", "variant", "barrier", "serialized", "min time", "max time")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-14s %9.1f%% %11.1f%% %10.1f %10.1f\n",
			row.Name, 100*row.Barrier.Mean, 100*row.Serialized.Mean,
			row.MinSpan.Mean, row.MaxSpan.Mean)
	}
	fmt.Fprintf(&sb, "\npaper: round-robin nearly eliminates serialization and pushes the barrier\n")
	fmt.Fprintf(&sb, "fraction toward 50%%; hmin-first slightly lowers min time and raises max;\n")
	fmt.Fprintf(&sb, "lookahead raises serialization at some execution-time cost; the barrier\n")
	fmt.Fprintf(&sb, "fraction is not very sensitive to instruction timing variation.\n")
	return sb.String()
}

// OptimalResult compares the three insertion algorithms: naive (no timing
// tracking — the pre-paper [DSOZ89] baseline), conservative (section
// 4.4.1, the paper's choice), and optimal (section 4.4.2). The gap between
// naive and conservative is the value of the paper's min/max timing
// tracking; the gap between conservative and optimal is the value of the
// overlap refinement.
type OptimalResult struct {
	NaiveBarriers, ConsBarriers, OptBarriers metrics.Summary
	Rescues                                  metrics.Summary
}

// Optimal runs the insertion-algorithm comparison on 60-statement,
// 10-variable benchmarks with 8 processors.
func Optimal(cfg Config) (*OptimalResult, error) {
	cfg = cfg.withDefaults()
	nb := make([]float64, cfg.Runs)
	cb := make([]float64, cfg.Runs)
	ob := make([]float64, cfg.Runs)
	rs := make([]float64, cfg.Runs)
	err := cfg.forEach(cfg.Runs, func(r int) error {
		seed := cfg.seedAt(0, r)
		g, err := BuildDAG(60, 10, seed)
		if err != nil {
			return err
		}
		co := core.DefaultOptions(8)
		co.Seed = seed
		c, err := core.ScheduleDAG(g, co)
		if err != nil {
			return err
		}
		no := co
		no.Insertion = core.Naive
		n, err := core.ScheduleDAG(g, no)
		if err != nil {
			return err
		}
		oo := co
		oo.Insertion = core.Optimal
		o, err := core.ScheduleDAG(g, oo)
		if err != nil {
			return err
		}
		nb[r] = float64(n.NumBarriers())
		cb[r] = float64(c.NumBarriers())
		ob[r] = float64(o.NumBarriers())
		rs[r] = float64(o.Metrics.OptimalRescues)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &OptimalResult{
		NaiveBarriers: metrics.Summarize(nb),
		ConsBarriers:  metrics.Summarize(cb),
		OptBarriers:   metrics.Summarize(ob),
		Rescues:       metrics.Summarize(rs),
	}, nil
}

// Render formats the insertion comparison.
func (r *OptimalResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Section 4.4: Barrier Insertion Algorithms\n")
	fmt.Fprintf(&sb, "(60 statements, 10 variables, 8 processors)\n\n")
	fmt.Fprintf(&sb, "%-34s %10.2f\n", "naive barriers (no timing, DSOZ89)", r.NaiveBarriers.Mean)
	fmt.Fprintf(&sb, "%-34s %10.2f\n", "conservative barriers (4.4.1)", r.ConsBarriers.Mean)
	fmt.Fprintf(&sb, "%-34s %10.2f\n", "optimal barriers (4.4.2)", r.OptBarriers.Mean)
	fmt.Fprintf(&sb, "%-34s %10.2f\n", "pairs rescued by overlap", r.Rescues.Mean)
	fmt.Fprintf(&sb, "\npaper: the conservative algorithm was used for all experiments because it\n")
	fmt.Fprintf(&sb, "is much simpler and its results were very good (footnote 5).\n")
	return sb.String()
}
