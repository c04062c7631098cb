package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"barriermimd/internal/exp"
	"barriermimd/internal/machine"
)

// Exp implements bmexp: regenerate the paper's tables and figures.
func Exp(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bmexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("experiment", "all", "experiment name, or all")
	runs := fs.Int("runs", 100, "benchmarks per parameter point (paper: 100)")
	seed := fs.Int64("seed", 1, "base seed for benchmark generation")
	workers := fs.Int("j", 0, "max concurrent trials (0 = all cores); results are identical for any value")
	lanes := fs.Int("lanes", 0, "seeds per simulated benchmark in sweep experiments (0 = default 16); unlike -j this widens the sweep, so it changes reported means")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file")
	list := fs.Bool("list", false, "list available experiments")
	csvDir := fs.String("csv", "", "also write <experiment>.csv series files into this directory")
	simStats := fs.String("simstats", "", "write simulation throughput counters (plans/runs/pool hit rate/sequential lanes) as JSON to this file")
	obsvf := addObsvFlags(fs, false)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	session, oerr := obsvf.begin(stderr)
	if oerr != nil {
		return fail(stderr, "bmexp", oerr)
	}

	if *list {
		for _, n := range exp.Names() {
			fmt.Fprintf(stdout, "%-12s %s\n", n, exp.Describe(n))
		}
		return 0
	}
	if err := nonNegative(intFlag{"j", *workers}, intFlag{"lanes", *lanes}); err != nil {
		return fail(stderr, "bmexp", err)
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return fail(stderr, "bmexp", err)
	}
	profilesStopped := false
	finishProfiles := func() int {
		profilesStopped = true
		if err := stopProfiles(); err != nil {
			return fail(stderr, "bmexp", err)
		}
		return 0
	}
	defer func() {
		if !profilesStopped {
			stopProfiles()
		}
	}()

	names := []string{*name}
	if *name == "all" {
		names = exp.Names()
	}
	if *simStats != "" {
		// Counters are process-wide; reset so the dump covers exactly the
		// experiments this invocation ran.
		machine.ResetStats()
	}
	cfg := exp.Config{Runs: *runs, Seed: *seed, Workers: *workers, Lanes: *lanes}
	for _, n := range names {
		start := time.Now()
		r, err := exp.Run(n, cfg)
		if err != nil {
			return fail(stderr, "bmexp", err)
		}
		fmt.Fprintf(stdout, "================ %s ================\n\n", n)
		fmt.Fprint(stdout, r.Render())
		if *csvDir != "" {
			if c, ok := r.(interface{ CSV() string }); ok {
				path := filepath.Join(*csvDir, n+".csv")
				if err := os.WriteFile(path, []byte(c.CSV()), 0o644); err != nil {
					return fail(stderr, "bmexp", err)
				}
				fmt.Fprintf(stdout, "\n[series written to %s]\n", path)
			}
		}
		fmt.Fprintf(stdout, "\n[%s completed in %v]\n\n", n, time.Since(start).Round(time.Millisecond))
	}
	if *simStats != "" {
		st := machine.Stats()
		b, err := json.MarshalIndent(struct {
			PlansCompiled   uint64  `json:"plans_compiled"`
			Runs            uint64  `json:"runs"`
			RunsPerPlan     float64 `json:"runs_per_plan"`
			ScratchHits     uint64  `json:"scratch_hits"`
			ScratchMisses   uint64  `json:"scratch_misses"`
			PoolHitRate     float64 `json:"pool_hit_rate"`
			Batches         uint64  `json:"batches"`
			Lanes           uint64  `json:"lanes"`
			LanesPerBatch   float64 `json:"lanes_per_batch"`
			SequentialLanes uint64  `json:"sequential_lanes"`
		}{st.PlansCompiled, st.Runs, st.RunsPerPlan(), st.ScratchHits, st.ScratchMisses, st.PoolHitRate(),
			st.Batches, st.Lanes, st.LanesPerBatch(), st.SequentialLanes}, "", "  ")
		if err != nil {
			return fail(stderr, "bmexp", err)
		}
		if err := os.WriteFile(*simStats, append(b, '\n'), 0o644); err != nil {
			return fail(stderr, "bmexp", err)
		}
		fmt.Fprintf(stdout, "[sim stats written to %s: %s]\n", *simStats, st.String())
	}
	if err := session.finish(stderr); err != nil {
		return fail(stderr, "bmexp", err)
	}
	return finishProfiles()
}
