package exp

import (
	"fmt"
	"strings"

	"barriermimd/internal/core"
	"barriermimd/internal/metrics"
)

// LookaheadResult details the section 5.4 lookahead experiment: a window
// of upcoming list entries guards serialization slots during assignment.
// The paper reports that serialization increases (though little on many
// processors), while execution time rises 10–30% on small machines and
// the increase disappears on large ones.
type LookaheadResult struct {
	Windows    []int
	Processors []int
	// Serial[w][p] and MaxSpan[w][p] are mean serialized fraction and
	// mean worst-case completion per (window, processors) cell.
	Serial  [][]metrics.Summary
	MaxSpan [][]metrics.Summary
}

// Lookahead sweeps window size × machine size on 60-statement,
// 10-variable benchmarks.
func Lookahead(cfg Config) (*LookaheadResult, error) {
	cfg = cfg.withDefaults()
	res := &LookaheadResult{
		Windows:    []int{0, 2, 5, 10},
		Processors: []int{2, 4, 8, 16},
	}
	for _, w := range res.Windows {
		var serRow, spanRow []metrics.Summary
		for _, procs := range res.Processors {
			w, procs := w, procs
			ser := make([]float64, cfg.Runs)
			span := make([]float64, cfg.Runs)
			err := cfg.forEach(cfg.Runs, func(r int) error {
				seed := cfg.seedAt(w*31+procs, r)
				opts := core.DefaultOptions(procs)
				opts.Lookahead = w
				s, err := ScheduleOne(60, 10, seed, opts)
				if err != nil {
					return err
				}
				ser[r] = s.Metrics.SerializedFraction()
				_, mx, err := s.StaticSpan()
				if err != nil {
					return err
				}
				span[r] = float64(mx)
				return nil
			})
			if err != nil {
				return nil, err
			}
			serRow = append(serRow, metrics.Summarize(ser))
			spanRow = append(spanRow, metrics.Summarize(span))
		}
		res.Serial = append(res.Serial, serRow)
		res.MaxSpan = append(res.MaxSpan, spanRow)
	}
	return res, nil
}

// Render prints the two matrices.
func (r *LookaheadResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Section 5.4: Lookahead window sweep (60 statements, 10 variables)\n\n")
	header := func() {
		fmt.Fprintf(&sb, "%-10s", "window")
		for _, p := range r.Processors {
			fmt.Fprintf(&sb, " %7d PE", p)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintln(&sb, "serialized fraction:")
	header()
	for wi, w := range r.Windows {
		fmt.Fprintf(&sb, "%-10d", w)
		for pi := range r.Processors {
			fmt.Fprintf(&sb, " %9.1f%%", 100*r.Serial[wi][pi].Mean)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintln(&sb, "\nworst-case completion time (relative to window 0):")
	header()
	for wi, w := range r.Windows {
		fmt.Fprintf(&sb, "%-10d", w)
		for pi := range r.Processors {
			base := r.MaxSpan[0][pi].Mean
			fmt.Fprintf(&sb, " %9.1f%%", 100*(r.MaxSpan[wi][pi].Mean/base-1))
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "\npaper: lookahead raises serialization; execution time rises 10-30%% on\n")
	fmt.Fprintf(&sb, "small machines and the increase disappears for many processors.\n")
	return sb.String()
}
