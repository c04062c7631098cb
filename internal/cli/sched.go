package cli

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"barriermimd/internal/core"
	"barriermimd/internal/ir"
)

// Sched implements bmsched: compile a program (or the Figure 1 example)
// and print its tuple listing, schedule, barrier dag, and metrics. Given
// several input files, it schedules them as a batch across -j workers
// instead.
func Sched(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bmsched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	procs := fs.Int("procs", 8, "number of processors (paper: 2-128)")
	machineName := fs.String("machine", "sbm", "sbm (merging) or dbm")
	insertion := fs.String("insertion", "conservative", "conservative or optimal barrier insertion")
	seed := fs.Int64("seed", 0, "scheduler tie-break seed")
	workers := fs.Int("j", 0, "max concurrent schedules with several input files (0 = all cores)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file")
	example := fs.Bool("example", false, "schedule the paper's Figure 1 example block")
	listing := fs.Bool("listing", false, "treat input as a Figure 1 tuple listing instead of source text")
	gantt := fs.Bool("gantt", false, "also print a simulated-execution Gantt chart")
	asJSON := fs.Bool("json", false, "emit the schedule as JSON instead of text")
	asDot := fs.String("dot", "", "emit Graphviz dot instead of text: dag or barriers")
	obsvf := addObsvFlags(fs, true)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	session, err := obsvf.begin(stderr)
	if err != nil {
		return fail(stderr, "bmsched", err)
	}
	if err := nonNegative(intFlag{"j", *workers}); err != nil {
		return fail(stderr, "bmsched", err)
	}

	opts := core.DefaultOptions(*procs)
	opts.Seed = *seed
	opts.Parallelism = *workers
	opts.Recorder = session.recorder()
	if opts.Machine, err = parseMachine(*machineName); err != nil {
		return fail(stderr, "bmsched", err)
	}
	if opts.Insertion, err = parseInsertion(*insertion); err != nil {
		return fail(stderr, "bmsched", err)
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return fail(stderr, "bmsched", err)
	}
	code := schedMain(fs, opts, stdin, stdout, stderr, *example, *listing, *gantt, *asJSON, *asDot, *seed)
	if perr := stopProfiles(); perr != nil && code == 0 {
		return fail(stderr, "bmsched", perr)
	}
	if oerr := session.finish(stderr); oerr != nil && code == 0 {
		return fail(stderr, "bmsched", oerr)
	}
	return code
}

// schedMain runs bmsched after flag parsing and profile setup.
func schedMain(fs *flag.FlagSet, opts core.Options, stdin io.Reader, stdout, stderr io.Writer,
	example, listing, gantt, asJSON bool, asDot string, seed int64) int {

	if fs.NArg() > 1 && !example && !listing {
		return schedBatch(fs.Args(), opts, asJSON, stdout, stderr)
	}

	var block *ir.Block
	var err error
	switch {
	case example:
		block = ir.Fig1Block()
	case listing:
		src, rerr := readSource(fs.Arg(0), stdin)
		if rerr != nil {
			return fail(stderr, "bmsched", rerr)
		}
		if block, err = ir.ParseListing(src); err != nil {
			return fail(stderr, "bmsched", err)
		}
	default:
		src, rerr := readSource(fs.Arg(0), stdin)
		if rerr != nil {
			return fail(stderr, "bmsched", rerr)
		}
		if block, err = compileSource(src); err != nil {
			return fail(stderr, "bmsched", err)
		}
	}

	g, err := buildDAG(block)
	if err != nil {
		return fail(stderr, "bmsched", err)
	}
	ft, err := g.FinishTimes()
	if err != nil {
		return fail(stderr, "bmsched", err)
	}
	if asDot == "dag" {
		fmt.Fprint(stdout, g.DOT())
		return 0
	}
	if !asJSON && asDot == "" {
		fmt.Fprintln(stdout, "=== Tuples (Figure 1 format) ===")
		fmt.Fprint(stdout, block.Listing(func(i int) (int, int) { return ft.Min[i], ft.Max[i] }))
	}

	s, err := core.ScheduleDAG(g, opts)
	if err != nil {
		return fail(stderr, "bmsched", err)
	}
	if asJSON {
		raw, jerr := s.ExportJSON()
		if jerr != nil {
			return fail(stderr, "bmsched", jerr)
		}
		stdout.Write(raw)
		fmt.Fprintln(stdout)
		return 0
	}
	switch asDot {
	case "":
	case "barriers":
		fmt.Fprint(stdout, s.BarrierDOT())
		return 0
	default:
		return fail(stderr, "bmsched", fmt.Errorf("unknown -dot target %q (want dag or barriers)", asDot))
	}
	fmt.Fprintln(stdout, "\n=== Schedule ===")
	fmt.Fprint(stdout, s.Render())

	fmt.Fprintln(stdout, "\n=== Barrier dag ===")
	fmin, fmax := s.Barriers.FireWindows()
	for _, id := range s.BarrierIDs() {
		fmt.Fprintf(stdout, "b%-3d procs=%v fires in [%d,%d]", id, s.Participants[id], fmin[id], fmax[id])
		var succs []string
		for _, sn := range s.Barriers.Succs(id) {
			succs = append(succs, fmt.Sprintf("b%d", sn))
		}
		if len(succs) > 0 {
			fmt.Fprintf(stdout, "  -> %s", strings.Join(succs, " "))
		}
		fmt.Fprintln(stdout)
	}

	mn, mx, err := s.StaticSpan()
	if err != nil {
		return fail(stderr, "bmsched", err)
	}
	cmin, cmax, err := g.CriticalPath()
	if err != nil {
		return fail(stderr, "bmsched", err)
	}
	fmt.Fprintln(stdout, "\n=== Metrics ===")
	fmt.Fprintln(stdout, s.Metrics.String())
	fmt.Fprintf(stdout, "completion time: [%d,%d] (critical path lower bound: [%d,%d])\n", mn, mx, cmin, cmax)
	fmt.Fprintf(stdout, "path-cache: %s\n", s.Metrics.PathCache.String())
	if s.Metrics.Stages != nil {
		fmt.Fprintf(stdout, "stages: %s\n", s.Metrics.Stages.String())
	}

	if gantt {
		if code := printGantt(s, seed, stdout, stderr); code != 0 {
			return code
		}
	}
	return 0
}
