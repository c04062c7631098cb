package barriermimd_test

import (
	"fmt"

	"barriermimd"
)

// ExampleScheduleSource compiles and schedules a tiny block, then reports
// how its synchronizations were resolved.
func ExampleScheduleSource() {
	sched, err := barriermimd.ScheduleSource("c = a + b", barriermimd.DefaultOptions(2))
	if err != nil {
		panic(err)
	}
	m := sched.Metrics
	fmt.Printf("syncs=%d barriers=%d serialized=%d\n",
		m.TotalImpliedSyncs, m.Barriers, m.SerializedSyncs)
	// Output:
	// syncs=3 barriers=1 serialized=2
}

// ExampleSimulate executes a schedule with every instruction at its
// minimum time; the finish time equals the schedule's static lower bound.
func ExampleSimulate() {
	sched, err := barriermimd.ScheduleSource("c = a + b\nd = c * c", barriermimd.DefaultOptions(2))
	if err != nil {
		panic(err)
	}
	run, err := barriermimd.Simulate(sched, barriermimd.SimConfig{Policy: barriermimd.MinTimes})
	if err != nil {
		panic(err)
	}
	lo, _, err := sched.StaticSpan()
	if err != nil {
		panic(err)
	}
	fmt.Println(run.FinishTime == lo, run.CheckDependences() == nil)
	// Output:
	// true true
}

// ExampleParseCF runs a loop program on the simulated barrier MIMD.
func ExampleParseCF() {
	prog, err := barriermimd.ParseCF("f = 1\nwhile n {\n f = f * n\n n = n - 1\n}")
	if err != nil {
		panic(err)
	}
	cf, err := barriermimd.CompileCF(prog, barriermimd.DefaultOptions(2))
	if err != nil {
		panic(err)
	}
	res, err := cf.Run(barriermimd.Memory{"n": 5}, barriermimd.CFRunConfig{})
	if err != nil {
		panic(err)
	}
	fmt.Println("5! =", res.Memory["f"])
	// Output:
	// 5! = 120
}

// ExampleCompileSim compiles a schedule into one simulation plan and
// sweeps many seeds through it — the compile-once/run-many path used by
// every repeat-simulation consumer. Every random execution lands inside
// the static [min,max] span, and the extreme policies attain its bounds
// exactly.
func ExampleCompileSim() {
	sched, err := barriermimd.ScheduleSource("c = a + b\nd = c * c\ne = d - a",
		barriermimd.DefaultOptions(2))
	if err != nil {
		panic(err)
	}
	plan, err := barriermimd.CompileSim(sched, barriermimd.SBM)
	if err != nil {
		panic(err)
	}
	lo, hi, err := sched.StaticSpan()
	if err != nil {
		panic(err)
	}
	inSpan := true
	for seed := int64(0); seed < 100; seed++ {
		r, err := plan.Run(barriermimd.SimConfig{Policy: barriermimd.RandomTimes, Seed: seed})
		if err != nil {
			panic(err)
		}
		inSpan = inSpan && r.FinishTime >= lo && r.FinishTime <= hi && r.CheckDependences() == nil
		r.Release()
	}
	rmin, err := plan.Run(barriermimd.SimConfig{Policy: barriermimd.MinTimes})
	if err != nil {
		panic(err)
	}
	rmax, err := plan.Run(barriermimd.SimConfig{Policy: barriermimd.MaxTimes})
	if err != nil {
		panic(err)
	}
	fmt.Println(inSpan, rmin.FinishTime == lo, rmax.FinishTime == hi)
	rmin.Release()
	rmax.Release()
	// Output:
	// true true true
}

// ExampleScheduleBatch_trace schedules several DAGs concurrently with a
// trace recorder attached. Per-item event streams are replayed in item
// order, so the merged trace is identical for every Parallelism value;
// each item contributes exactly one sched-done event. Every item is
// attempted and reports its own error.
func ExampleScheduleBatch_trace() {
	var graphs []*barriermimd.Graph
	for _, src := range []string{"c = a + b", "f = d * e\ng = f - d", "x = y % z"} {
		p, err := barriermimd.Parse(src)
		if err != nil {
			panic(err)
		}
		b, err := barriermimd.Compile(p)
		if err != nil {
			panic(err)
		}
		g, err := barriermimd.BuildDAG(b)
		if err != nil {
			panic(err)
		}
		graphs = append(graphs, g)
	}
	opts := barriermimd.DefaultOptions(2)
	opts.Parallelism = 4
	ring := barriermimd.NewTraceRing(1 << 12)
	opts.Recorder = ring
	scheds, errs, err := barriermimd.ScheduleBatch(graphs, opts)
	if err != nil {
		panic(err) // invalid options
	}
	for i, err := range errs {
		if err != nil {
			panic(fmt.Sprintf("item %d: %v", i, err)) // one item failed; the others are still in scheds
		}
	}
	done := 0
	for _, ev := range ring.Events() {
		if ev.Kind == barriermimd.TraceSchedDone {
			done++
		}
	}
	fmt.Println(len(scheds), done == len(graphs))
	// Output:
	// 3 true
}

// ExampleGenerate shows deterministic synthetic benchmark generation.
func ExampleGenerate() {
	p1, _ := barriermimd.Generate(barriermimd.GenConfig{Statements: 5, Variables: 3}, 7)
	p2, _ := barriermimd.Generate(barriermimd.GenConfig{Statements: 5, Variables: 3}, 7)
	fmt.Println(len(p1.Stmts), p1.String() == p2.String())
	// Output:
	// 5 true
}
