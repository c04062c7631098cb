package cli

import (
	"flag"
	"fmt"
	"io"
	"math"
	"sort"

	"barriermimd/internal/core"
	"barriermimd/internal/machine"
	"barriermimd/internal/obsv"
	"barriermimd/internal/synth"
)

// defaultLanes is bmsim's seed-sweep batch width.
const defaultLanes = 32

// printGantt simulates one random execution and prints its timeline. The
// run inherits the schedule's trace recorder (if any), so a -trace file
// captures its barrier firings too.
func printGantt(s *core.Schedule, seed int64, stdout, stderr io.Writer) int {
	plan, err := machine.Compile(s, s.Opts.Machine)
	if err != nil {
		return fail(stderr, "gantt", err)
	}
	run, err := plan.Run(machine.Config{Policy: machine.RandomTimes, Seed: seed, Recorder: s.Opts.Recorder})
	if err != nil {
		return fail(stderr, "gantt", err)
	}
	fmt.Fprintln(stdout, "\n=== Simulated execution (random timings) ===")
	fmt.Fprint(stdout, run.Gantt(100))
	run.Release()
	return 0
}

// Sim implements bmsim: schedule a program (from a file or synthesized)
// and execute it repeatedly, verifying every dependence. The schedule is
// compiled into a simulation plan once; all executions — the per-run table
// and the optional -seeds sweep — reuse that plan.
func Sim(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bmsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	procs := fs.Int("procs", 8, "number of processors")
	machineName := fs.String("machine", "sbm", "sbm or dbm")
	runs := fs.Int("runs", 20, "random-timing executions to simulate")
	seed := fs.Int64("seed", 0, "base seed")
	seeds := fs.Int("seeds", 0, "additionally sweep N seeds through the compiled plan (parallel) and report finish-time statistics")
	lanes := fs.Int("lanes", defaultLanes, "seed-sweep batch width for the lane-parallel RunMany kernel (0 = default 32)")
	policyName := fs.String("policy", "random", "timing policy: random, min, or max")
	stmts := fs.Int("stmts", 40, "synthetic benchmark statements (no file given)")
	vars := fs.Int("vars", 10, "synthetic benchmark variables (no file given)")
	gantt := fs.Bool("gantt", false, "print a Gantt chart of the first execution")
	obsvf := addObsvFlags(fs, true)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := nonNegative(intFlag{"seeds", *seeds}, intFlag{"lanes", *lanes}); err != nil {
		return fail(stderr, "bmsim", err)
	}
	session, err := obsvf.begin(stderr)
	if err != nil {
		return fail(stderr, "bmsim", err)
	}

	opts := core.DefaultOptions(*procs)
	opts.Seed = *seed
	opts.Recorder = session.recorder()
	if opts.Machine, err = parseMachine(*machineName); err != nil {
		return fail(stderr, "bmsim", err)
	}
	policy, err := parsePolicy(*policyName)
	if err != nil {
		return fail(stderr, "bmsim", err)
	}

	var src string
	if path := fs.Arg(0); path != "" {
		if src, err = readSource(path, stdin); err != nil {
			return fail(stderr, "bmsim", err)
		}
	} else {
		prog, gerr := synth.Generate(synth.Config{Statements: *stmts, Variables: *vars}, *seed)
		if gerr != nil {
			return fail(stderr, "bmsim", gerr)
		}
		src = prog.String()
	}
	block, err := compileSource(src)
	if err != nil {
		return fail(stderr, "bmsim", err)
	}
	g, err := buildDAG(block)
	if err != nil {
		return fail(stderr, "bmsim", err)
	}
	s, err := core.ScheduleDAG(g, opts)
	if err != nil {
		return fail(stderr, "bmsim", err)
	}
	fmt.Fprintf(stdout, "scheduled %d tuples on %d processors (%v): %s\n",
		block.Len(), *procs, opts.Machine, s.Metrics.String())

	mn, mx, err := s.StaticSpan()
	if err != nil {
		return fail(stderr, "bmsim", err)
	}
	fmt.Fprintf(stdout, "static completion window: [%d,%d]\n\n", mn, mx)

	plan, err := machine.Compile(s, opts.Machine)
	if err != nil {
		return fail(stderr, "bmsim", err)
	}

	fmt.Fprintf(stdout, "%6s %10s %8s\n", "run", "finish", "checked")
	violations := 0
	for r := 0; r < *runs; r++ {
		res, err := plan.Run(machine.Config{
			Policy:   policy,
			Seed:     *seed + int64(r),
			Recorder: session.recorder(),
		})
		if err != nil {
			return fail(stderr, "bmsim", err)
		}
		status := "ok"
		if err := res.CheckDependences(); err != nil {
			status = err.Error()
			violations++
		}
		fmt.Fprintf(stdout, "%6d %10d %8s\n", r, res.FinishTime, status)
		if res.FinishTime < mn || res.FinishTime > mx {
			fmt.Fprintf(stdout, "       finish %d outside static window [%d,%d]!\n", res.FinishTime, mn, mx)
			violations++
		}
		if r == 0 && *gantt {
			fmt.Fprint(stdout, res.Gantt(100))
		}
		res.Release()
	}
	if violations > 0 {
		fmt.Fprintf(stderr, "bmsim: %d violations detected\n", violations)
		return 1
	}
	fmt.Fprintf(stdout, "\nall %d executions satisfied every dependence within [%d,%d]\n", *runs, mn, mx)

	if *seeds > 0 {
		finishes, err := sweepSeeds(plan, policy, *seed, *seeds, *lanes, session.recorder())
		if err != nil {
			return fail(stderr, "bmsim", err)
		}
		st := machine.Stats()
		fmt.Fprintf(stdout, "\nseed sweep: %d runs of one compiled plan (%v, %v timings)\n",
			*seeds, opts.Machine, policy)
		fmt.Fprintf(stdout, "finish min/median/max: %d / %d / %d\n",
			finishes[0], finishes[len(finishes)/2], finishes[len(finishes)-1])
		mean, std := meanStd(finishes)
		fmt.Fprintf(stdout, "finish mean/stddev: %.1f / %.1f\n", mean, std)
		fmt.Fprintf(stdout, "sim stats: %s\n", st.String())
	}
	if err := session.finish(stderr); err != nil {
		return fail(stderr, "bmsim", err)
	}
	return 0
}

// sweepSeeds sweeps n consecutive seeds through the plan's lane-parallel
// RunMany kernel in batches of lanes seeds (0 selects defaultLanes) and
// returns the finish times sorted ascending. The kernel parallelizes
// chunks across the worker pool internally and replays each batch's trace
// events in lane index order, so the merged stream is the seeds' events in
// ascending seed order at any lane or worker count.
func sweepSeeds(plan *machine.Plan, policy machine.Policy, base int64, n, lanes int, rec obsv.Recorder) ([]int, error) {
	if lanes == 0 {
		lanes = defaultLanes
	}
	finishes := make([]int, 0, n)
	batch := make([]int64, lanes)
	for lo := 0; lo < n; lo += lanes {
		hi := lo + lanes
		if hi > n {
			hi = n
		}
		seeds := batch[:hi-lo]
		for i := range seeds {
			seeds[i] = base + int64(lo+i)
		}
		br, err := plan.RunMany(machine.Config{Policy: policy, Recorder: rec}, seeds)
		if err != nil {
			return nil, err
		}
		finishes = append(finishes, br.FinishTimes...)
		br.Release()
	}
	sort.Ints(finishes)
	return finishes, nil
}

// meanStd returns the mean and population standard deviation of xs.
func meanStd(xs []int) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	mean = sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		d := float64(x) - mean
		sq += d * d
	}
	if len(xs) > 1 {
		std = math.Sqrt(sq / float64(len(xs)))
	}
	return mean, std
}
