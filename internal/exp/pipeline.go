package exp

import (
	"barriermimd/internal/core"
	"barriermimd/internal/dag"
	"barriermimd/internal/ir"
	"barriermimd/internal/lang"
	"barriermimd/internal/opt"
	"barriermimd/internal/synth"
	"fmt"
)

// Config controls an experiment run.
type Config struct {
	// Runs is the number of benchmarks per parameter point (paper: 100).
	Runs int
	// Seed is the base seed; benchmark seeds derive from it.
	Seed int64
	// Workers bounds the goroutines used to run trials concurrently
	// (the bmexp -j flag); 0 selects GOMAXPROCS. Per-trial seeds derive
	// from Seed and the trial index alone, and trial results are
	// aggregated in index order, so reports are bit-identical for every
	// worker count.
	Workers int
	// Lanes is the simulation batch width (the bmexp -lanes flag): how
	// many timing seeds the simulation-bearing experiments sweep through
	// Plan.RunMany per trial; 0 selects DefaultLanes. Lane seeds derive
	// from the trial seed alone, so reports are bit-identical for every
	// worker count (lane count changes which seeds are swept, so it IS
	// report-affecting — unlike Workers).
	Lanes int
}

// DefaultLanes is the simulation batch width experiments use when
// Config.Lanes is zero.
const DefaultLanes = 16

func (c Config) withDefaults() Config {
	if c.Runs == 0 {
		c.Runs = 100
	}
	if c.Lanes == 0 {
		c.Lanes = DefaultLanes
	}
	return c
}

// BuildDAG runs the benchmark pipeline: synthesize → compile → optimize →
// instruction DAG, under the Table 1 timing model.
func BuildDAG(stmts, vars int, seed int64) (*dag.Graph, error) {
	return BuildDAGTimed(stmts, vars, seed, ir.DefaultTimings())
}

// BuildDAGTimed is BuildDAG with an explicit timing model (used by the
// instruction-timing-variation ablation).
func BuildDAGTimed(stmts, vars int, seed int64, tm ir.TimingModel) (*dag.Graph, error) {
	prog, err := synth.Generate(synth.Config{Statements: stmts, Variables: vars}, seed)
	if err != nil {
		return nil, err
	}
	naive, err := lang.Compile(prog)
	if err != nil {
		return nil, err
	}
	optb, _, err := opt.Optimize(naive)
	if err != nil {
		return nil, err
	}
	return dag.Build(optb, tm)
}

// ScheduleOne builds and schedules one benchmark, returning its schedule.
func ScheduleOne(stmts, vars int, seed int64, opts core.Options) (*core.Schedule, error) {
	g, err := BuildDAG(stmts, vars, seed)
	if err != nil {
		return nil, err
	}
	opts.Seed = seed
	return core.ScheduleDAG(g, opts)
}

// seedAt derives the benchmark seed for run r at sweep position k.
func (c Config) seedAt(k, r int) int64 {
	return c.Seed + int64(k)*1_000_003 + int64(r)
}

// laneSeeds derives the timing seeds one trial sweeps through
// Plan.RunMany. Lane 0 is the trial seed itself (preserving continuity
// with the former single-run path); the rest stride by a large odd
// constant so lane seeds of neighbouring trials — which seedAt spaces
// one apart — never collide.
func (c Config) laneSeeds(base int64) []int64 {
	seeds := make([]int64, c.Lanes)
	for j := range seeds {
		seeds[j] = base + int64(j)*2_654_435_761
	}
	return seeds
}

// errTest supports the forEach unit test.
var errTest = fmt.Errorf("test error")
