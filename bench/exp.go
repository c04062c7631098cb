package main

import (
	"fmt"
	"time"

	"barriermimd/internal/exp"
	"barriermimd/internal/machine"
	"barriermimd/internal/metrics"
	"barriermimd/internal/pool"
)

// One exp-figures operation regenerates every experiment in expNames for
// one seed with expWorkers workers, as a researcher's bmexp run does;
// operations rotate through expSeeds seeds.
var expNames = []string{"fig15", "fig17", "fig18", "merge", "optimal", "mimd", "barriercost", "simdist"}

const (
	expSeeds   = 3
	expWorkers = 2
)

type expFigures struct {
	runs    int // trials per experiment
	seed    int64
	reports map[string]string // first rendering of each (experiment, seed)
	total   map[string]time.Duration
	calls   map[string]int64

	pool0 [2]uint64
	sim0  metrics.SimStats
}

func setupExpFigures(o *options) (instance, error) {
	e := &expFigures{runs: 100, seed: o.seed, reports: map[string]string{},
		total: map[string]time.Duration{}, calls: map[string]int64{}}
	if o.tiny {
		e.runs = 2
	}
	// Warm the scheduler and simulator pools with a two-trial pass.
	for _, name := range expNames {
		if _, err := exp.Run(name, exp.Config{Runs: 2, Seed: o.seed, Workers: expWorkers}); err != nil {
			return nil, fmt.Errorf("warm %s: %w", name, err)
		}
	}
	return e, nil
}

func (e *expFigures) close() {}

func (e *expFigures) run(tr *tracer, deadline time.Time, m *measurement) error {
	e.pool0[0], e.pool0[1] = pool.Stats()
	e.sim0 = machine.Stats()
	for c := int64(0); c == 0 || time.Now().Before(deadline); c++ {
		seed := e.seed + c%expSeeds
		m.attempted++
		root := tr.root(c, opSpan)
		t0 := time.Now()
		var failure error
		for _, name := range expNames {
			f := tr.child(&root, "exp.Run")
			s := time.Now()
			r, err := exp.Run(name, exp.Config{Runs: e.runs, Seed: seed, Workers: expWorkers})
			e.total[name] += time.Since(s)
			e.calls[name]++
			f.end()
			if err != nil {
				failure = fmt.Errorf("%s seed %d: %w", name, seed, err)
				continue
			}
			// Oracle: an experiment is a pure function of its seed, so every
			// repetition must render exactly as the first did.
			out := r.Render()
			k := fmt.Sprintf("%s/%d", name, seed)
			if first, ok := e.reports[k]; !ok {
				e.reports[k] = out
				if c == 0 {
					m.digest.Write([]byte(out))
				}
			} else if out != first {
				failure = fmt.Errorf("%s seed %d renders differently on repetition", name, seed)
			}
		}
		lat := time.Since(t0)
		root.end()
		if failure != nil {
			m.fail(failure)
			continue
		}
		m.good++
		m.samples = append(m.samples, sample{float64(lat) / 1e6, 1})
	}
	return nil
}

func (e *expFigures) verify(_ *tracer, m *measurement) error {
	batches, tasks := pool.Stats()
	st := machine.Stats()
	for name, d := range e.total {
		m.layer["exp."+name+"_s"] = ratio(d.Seconds(), float64(e.calls[name]))
	}
	m.layer["pool.tasks_per_batch"] = ratio(float64(tasks-e.pool0[1]), float64(batches-e.pool0[0]))
	m.layer["machine.lanes_per_batch"] = ratio(float64(st.Lanes-e.sim0.Lanes), float64(st.Batches-e.sim0.Batches))
	return nil
}
