package cli

import (
	"fmt"
	"io"
	"os"

	"barriermimd/internal/core"
	"barriermimd/internal/dag"
)

// schedBatch implements bmsched's multi-file mode: compile every input
// file, schedule all the valid ones concurrently across opts.Parallelism
// workers (the -j flag), and print one summary line per file in argument
// order followed by aggregate counters. A file that fails to read,
// compile, build, or schedule does not abort the batch: its error is
// reported on stderr in argument order, the remaining files are still
// scheduled, and the exit status is nonzero with a failure-count summary.
//
// Item i of the valid subset is scheduled with seed opts.Seed + i, exactly
// as core.ScheduleBatch documents, so output is identical for every -j
// value.
func schedBatch(paths []string, opts core.Options, asJSON bool, stdout, stderr io.Writer) int {
	gs := make([]*dag.Graph, 0, len(paths))
	srcIdx := make([]int, 0, len(paths)) // gs position -> paths index
	errs := make([]error, len(paths))
	for i, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			errs[i] = err
			continue
		}
		block, err := compileSource(string(src))
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", path, err)
			continue
		}
		g, err := buildDAG(block)
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", path, err)
			continue
		}
		gs = append(gs, g)
		srcIdx = append(srcIdx, i)
	}

	batch, batchErrs, err := core.ScheduleBatch(gs, opts)
	if err != nil {
		return fail(stderr, "bmsched", err)
	}
	scheds := make([]*core.Schedule, len(paths))
	for k, s := range batch {
		i := srcIdx[k]
		scheds[i] = s
		if batchErrs[k] != nil {
			errs[i] = fmt.Errorf("%s: %w", paths[i], batchErrs[k])
		}
	}

	code := 0
	failed := 0
	for i := range paths {
		if errs[i] != nil {
			fmt.Fprintf(stderr, "bmsched: %v\n", errs[i])
			failed++
		}
	}
	if failed > 0 {
		code = 1
	}

	if asJSON {
		// The array stays aligned with the argument list: failed files
		// emit null (their errors are on stderr).
		fmt.Fprintln(stdout, "[")
		for i, s := range scheds {
			if s == nil {
				fmt.Fprint(stdout, "null")
			} else {
				raw, jerr := s.ExportJSON()
				if jerr != nil {
					return fail(stderr, "bmsched", fmt.Errorf("%s: %w", paths[i], jerr))
				}
				stdout.Write(raw)
			}
			if i < len(scheds)-1 {
				fmt.Fprintln(stdout, ",")
			} else {
				fmt.Fprintln(stdout)
			}
		}
		fmt.Fprintln(stdout, "]")
		if failed > 0 {
			fmt.Fprintf(stderr, "bmsched: %d of %d files failed\n", failed, len(paths))
		}
		return code
	}

	for i, s := range scheds {
		if s == nil {
			fmt.Fprintf(stdout, "%-24s FAILED (see stderr)\n", paths[i])
			continue
		}
		mn, mx, serr := s.StaticSpan()
		if serr != nil {
			return fail(stderr, "bmsched", fmt.Errorf("%s: %w", paths[i], serr))
		}
		fmt.Fprintf(stdout, "%-24s %s span=[%d,%d]\n", paths[i], s.Metrics.String(), mn, mx)
	}
	total := core.BatchMetrics(scheds)
	fmt.Fprintf(stdout, "\nbatch: %d files", len(paths))
	if failed > 0 {
		fmt.Fprintf(stdout, " (%d failed)", failed)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "  %s\n", total.String())
	fmt.Fprintf(stdout, "  path-cache: %s\n", total.PathCache.String())
	if total.Stages != nil {
		fmt.Fprintf(stdout, "  stages:     %s\n", total.Stages.String())
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "bmsched: %d of %d files failed\n", failed, len(paths))
	}
	return code
}
