package main

import (
	"fmt"
	"time"

	"barriermimd/internal/core"
	"barriermimd/internal/machine"
	"barriermimd/internal/metrics"
	"barriermimd/internal/synth"
)

// simMix sizes the sim-sweep workload. Per round, every plan simulates
// scalar seeds through Plan.Run (the bmsim run table), w16 calls of
// RunMany at 16 lanes (the bmexp default width) and w128 calls at 128
// lanes (a merged serve flush): a quarter, a half and a quarter of the
// round's seeds.
type simMix struct {
	plans, stmts, vars int
	scalar, w16, w128  int
	sbmProcs, dbmProcs int
}

// SBM plans use 4 processors for the same reason compile-unique does:
// larger SBM schedules occasionally fail to schedule at all.
var (
	simFull = simMix{plans: 16, stmts: 60, vars: 10, scalar: 128, w16: 16, w128: 1, sbmProcs: 4, dbmProcs: 8}
	simTiny = simMix{plans: 2, stmts: 10, vars: 6, scalar: 8, w16: 1, w128: 1, sbmProcs: 2, dbmProcs: 4}
)

const simStream = 900_000

func (mx simMix) seedsPerPlan() int { return mx.scalar + 16*mx.w16 + 128*mx.w128 }

type simPlan struct {
	plan *machine.Plan
	// spanMin and spanMax bound every random-times completion: the
	// schedule's exact completion under all-minimum and all-maximum times.
	spanMin, spanMax int
}

type simSweep struct {
	mx    simMix
	seed  int64
	plans []simPlan
	lanes []int64

	scalarSeeds, w16Seeds, w128Seeds int64
	allocObjs                        uint64
	stats0                           metrics.SimStats
	cyclesSum, cyclesN               int64
}

func setupSimSweep(o *options) (instance, error) {
	mx := simFull
	if o.tiny {
		mx = simTiny
	}
	s := &simSweep{mx: mx, seed: o.seed, lanes: make([]int64, 128)}
	for p := 0; p < mx.plans; p++ {
		pseed := streamSeed(o.seed, simStream, int64(p))
		prog, err := synth.Generate(synth.Config{Statements: mx.stmts, Variables: mx.vars}, pseed)
		if err != nil {
			return nil, err
		}
		opts := core.DefaultOptions(mx.sbmProcs)
		if p%2 == 1 {
			opts = core.DefaultOptions(mx.dbmProcs)
			opts.Machine = core.DBM
		}
		opts.Seed = pseed
		sched, err := schedule(prog.String(), opts)
		if err != nil {
			return nil, fmt.Errorf("plan %d: %w", p, err)
		}
		plan, err := machine.Compile(sched, opts.Machine)
		if err != nil {
			return nil, fmt.Errorf("plan %d: %w", p, err)
		}
		lo, hi, err := sched.StaticSpan()
		if err != nil {
			return nil, fmt.Errorf("plan %d: %w", p, err)
		}
		// Warm the plan's scratch pools at both batch widths.
		for _, w := range []int{16, 128} {
			br, err := plan.RunMany(machine.Config{Policy: machine.RandomTimes}, s.lanes[:w])
			if err != nil {
				return nil, fmt.Errorf("plan %d: %w", p, err)
			}
			br.Release()
		}
		s.plans = append(s.plans, simPlan{plan: plan, spanMin: lo, spanMax: hi})
	}
	return s, nil
}

func (s *simSweep) close() {}

func (s *simSweep) run(tr *tracer, deadline time.Time, m *measurement) error {
	s.stats0 = machine.Stats()
	per := int64(s.mx.seedsPerPlan())
	op := int64(0)
	for round := int64(0); round == 0 || time.Now().Before(deadline); round++ {
		a0, _ := tr.heapAllocs()
		for p := range s.plans {
			base := streamSeed(s.seed, 0, (round*int64(len(s.plans))+int64(p))*per)
			s.scalarGroup(tr, op, round, p, base, m)
			op++
			for c := 0; c < s.mx.w16; c++ {
				s.laneGroup(tr, op, round, p, base+int64(s.mx.scalar+16*c), 16, m)
				op++
			}
			for c := 0; c < s.mx.w128; c++ {
				s.laneGroup(tr, op, round, p, base+int64(s.mx.scalar+16*s.mx.w16+128*c), 128, m)
				op++
			}
		}
		a1, _ := tr.heapAllocs()
		s.allocObjs += a1 - a0
	}
	return nil
}

// check is the per-seed oracle shared by both kernels: the completion
// time lies inside the schedule's static span, and round 0 feeds the
// digest and the mean.
func (s *simSweep) check(round int64, p int, seed int64, finish int, m *measurement) bool {
	pl := s.plans[p]
	if finish < pl.spanMin || finish > pl.spanMax {
		m.fail(fmt.Errorf("plan %d seed %d: finish %d outside static span [%d,%d]", p, seed, finish, pl.spanMin, pl.spanMax))
		return false
	}
	if round == 0 {
		writeInts(m.digest, seed, int64(finish))
		s.cyclesSum += int64(finish)
		s.cyclesN++
	}
	return true
}

// scalarGroup simulates the plan's scalar seeds one Plan.Run at a time
// and checks each run's dependences, as bmsim does for its run table.
func (s *simSweep) scalarGroup(tr *tracer, op, round int64, p int, base int64, m *measurement) {
	plan := s.plans[p].plan
	root := tr.root(op, opSpan)
	t0 := time.Now()
	ok := int64(0)
	for k := 0; k < s.mx.scalar; k++ {
		seed := base + int64(k)
		m.attempted++
		f := tr.child(&root, "machine.Plan.Run")
		res, err := plan.Run(machine.Config{Policy: machine.RandomTimes, Seed: seed})
		f.end()
		if err != nil {
			m.fail(fmt.Errorf("plan %d seed %d: %w", p, seed, err))
			continue
		}
		f = tr.child(&root, "machine.CheckDependences")
		err = res.CheckDependences()
		f.end()
		finish := res.FinishTime
		res.Release()
		if err != nil {
			m.fail(fmt.Errorf("plan %d seed %d: %w", p, seed, err))
			continue
		}
		if s.check(round, p, seed, finish, m) {
			ok++
		}
	}
	s.record(m, time.Since(t0), ok, s.mx.scalar)
	root.end()
	s.scalarSeeds += int64(s.mx.scalar)
}

// laneGroup simulates w consecutive seeds in one RunMany call.
func (s *simSweep) laneGroup(tr *tracer, op, round int64, p int, base int64, w int, m *measurement) {
	seeds := s.lanes[:w]
	for k := range seeds {
		seeds[k] = base + int64(k)
	}
	name := "machine.Plan.RunMany16"
	if w == 128 {
		name = "machine.Plan.RunMany128"
	}
	root := tr.root(op, opSpan)
	t0 := time.Now()
	m.attempted += int64(w)
	f := tr.child(&root, name)
	br, err := s.plans[p].plan.RunMany(machine.Config{Policy: machine.RandomTimes}, seeds)
	f.end()
	ok := int64(0)
	if err != nil {
		m.failed += int64(w) - 1
		m.fail(fmt.Errorf("plan %d seeds %d..%d: %w", p, base, base+int64(w)-1, err))
	} else {
		for l := 0; l < w; l++ {
			if s.check(round, p, seeds[l], br.FinishTimeOf(l), m) {
				ok++
			}
		}
		br.Release()
	}
	s.record(m, time.Since(t0), ok, w)
	root.end()
	if w == 128 {
		s.w128Seeds += int64(w)
	} else {
		s.w16Seeds += int64(w)
	}
}

// record adds one group's per-seed latency, weighted by its seed count.
func (s *simSweep) record(m *measurement, d time.Duration, ok int64, seeds int) {
	m.good += ok
	m.samples = append(m.samples, sample{float64(d) / 1e6 / float64(seeds), float64(seeds)})
}

func (s *simSweep) verify(tr *tracer, m *measurement) error {
	st := machine.Stats()
	hits := float64(st.ScratchHits - s.stats0.ScratchHits)
	misses := float64(st.ScratchMisses - s.stats0.ScratchMisses)
	l := m.layer
	l["machine.scratch_hit_frac"] = ratio(hits, hits+misses)
	l["machine.lanes_per_batch"] = ratio(float64(st.Lanes-s.stats0.Lanes), float64(st.Batches-s.stats0.Batches))
	l["machine.allocs_per_seed"] = ratio(float64(s.allocObjs), float64(m.attempted))
	l["machine.sim_cycles_mean"] = ratio(float64(s.cyclesSum), float64(s.cyclesN))
	l["machine.run_us_per_seed"] = perSeedUS(tr, "machine.Plan.Run", s.scalarSeeds)
	l["machine.run_many16_us_per_seed"] = perSeedUS(tr, "machine.Plan.RunMany16", s.w16Seeds)
	l["machine.run_many128_us_per_seed"] = perSeedUS(tr, "machine.Plan.RunMany128", s.w128Seeds)
	return nil
}

// perSeedUS reports a span's total time per simulated seed.
func perSeedUS(tr *tracer, span string, seeds int64) float64 {
	return ratio(float64(tr.stat(span).total)/1e3, float64(seeds))
}
