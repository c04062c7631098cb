package core

import (
	"fmt"
	"math/rand"

	"barriermimd/internal/dag"
	"barriermimd/internal/obsv"
)

// MachineKind selects static or dynamic barrier MIMD scheduling. The only
// scheduling-time difference (section 4.4.3) is that SBM schedules merge
// overlapping unordered barriers, because the SBM hardware executes
// barriers from a FIFO queue in a single compile-time order.
type MachineKind uint8

const (
	// SBM is the static barrier MIMD: barriers are totally ordered at
	// compile time and overlapping unordered barriers are merged.
	SBM MachineKind = iota
	// DBM is the dynamic barrier MIMD: barriers fire in run-time order, so
	// no merging is needed.
	DBM
)

func (m MachineKind) String() string {
	switch m {
	case SBM:
		return "SBM"
	case DBM:
		return "DBM"
	}
	return fmt.Sprintf("MachineKind(%d)", uint8(m))
}

// Insertion selects the barrier insertion algorithm of section 4.4.
type Insertion uint8

const (
	// Conservative is the section 4.4.1 algorithm. The paper used it for
	// all experiments ("much simpler and the results were very good").
	Conservative Insertion = iota
	// Optimal is the section 4.4.2 algorithm: it additionally checks the
	// k-longest producer paths with overlap-forced edge weights before
	// giving up and inserting a barrier.
	Optimal
	// Naive disables timing tracking entirely: every cross-processor
	// pair not already ordered by an existing barrier chain gets a
	// barrier. This approximates the pre-timing insertion sketched when
	// barrier MIMDs were first proposed [DiSc88, DSOZ89] and serves as
	// the ablation baseline that quantifies what this paper's min/max
	// execution-time tracking contributes.
	Naive
)

func (i Insertion) String() string {
	switch i {
	case Conservative:
		return "conservative"
	case Optimal:
		return "optimal"
	case Naive:
		return "naive"
	}
	return fmt.Sprintf("Insertion(%d)", uint8(i))
}

// Ordering selects the node-ordering key (section 4.2 and the 5.4
// ablation).
type Ordering uint8

const (
	// MaxHeightFirst sorts by descending h_max, breaking ties by
	// descending h_min: optimize the worst case first (the paper's
	// default).
	MaxHeightFirst Ordering = iota
	// MinHeightFirst swaps the keys: the section 5.4 ablation that
	// optimizes the best case first.
	MinHeightFirst
)

func (o Ordering) String() string {
	switch o {
	case MaxHeightFirst:
		return "hmax-first"
	case MinHeightFirst:
		return "hmin-first"
	}
	return fmt.Sprintf("Ordering(%d)", uint8(o))
}

// Assignment selects the node-assignment policy (section 4.3 and the 5.4
// round-robin ablation).
type Assignment uint8

const (
	// ListAssignment is the section 4.3 policy: serialize onto an idle
	// producer processor when possible, otherwise earliest start.
	ListAssignment Assignment = iota
	// RoundRobin assigns the i-th node of the list to processor i mod N.
	RoundRobin
)

func (a Assignment) String() string {
	switch a {
	case ListAssignment:
		return "list"
	case RoundRobin:
		return "round-robin"
	}
	return fmt.Sprintf("Assignment(%d)", uint8(a))
}

// Options configures a scheduling run. The zero value is not valid; use
// DefaultOptions and override.
type Options struct {
	// Processors is the machine size (paper: 2–128).
	Processors int
	// Machine selects SBM (with merging) or DBM.
	Machine MachineKind
	// Insertion selects conservative or optimal barrier insertion.
	Insertion Insertion
	// Ordering selects the list-ordering key.
	Ordering Ordering
	// Assignment selects the node-assignment policy.
	Assignment Assignment
	// Lookahead, when > 0, enables the section 5.4 lookahead ablation: the
	// assignment step avoids claiming a processor whose last instruction
	// is the producer of a node within the next Lookahead list entries.
	Lookahead int
	// Seed drives the random tie-breaks the paper calls for ("choose one
	// at random"); runs are reproducible for a fixed seed.
	Seed int64
	// PathLimit bounds path enumeration in optimal insertion (0 = 64).
	PathLimit int
	// Parallelism bounds the worker goroutines batch drivers
	// (ScheduleBatch, cfg.Program.Compile) fan independent DAG schedules
	// across; 0 selects GOMAXPROCS. Scheduling a single DAG is
	// unaffected: results are byte-identical for every Parallelism value.
	Parallelism int
	// Cache, when non-nil, memoizes whole scheduling runs: ScheduleDAG
	// consults it before running the section 4 pipeline and returns the
	// stored schedule when the same (DAG content, decision-relevant
	// options) pair was scheduled before. Cached schedules are shared and
	// must be treated as immutable; they are byte-identical to a fresh
	// run, and ScheduleBatch and cfg.Program.Compile derive the same
	// per-item seeds either way, so results do not change — only the work
	// performed. The canonical implementation is
	// internal/schedcache.Cache.
	Cache ScheduleCache
	// Recorder, when non-nil, receives a structured trace event for every
	// scheduler decision (barrier insertions, merges, rollbacks, repairs,
	// dag patches and rebuilds; see internal/obsv and OBSERVABILITY.md).
	// Events carry only deterministic data, so for a fixed Seed the stream
	// is identical across runs. A nil Recorder leaves the hot path
	// untouched. ScheduleBatch records each DAG into a private ring and
	// replays the rings in item order, so batch streams are deterministic
	// at every Parallelism value too.
	Recorder obsv.Recorder

	// forceRebuild and selfCheck are the test oracles of incremental
	// barrier-dag maintenance, set only by this package's tests.
	// forceRebuild makes every barrier insertion rebuild the dag from the
	// timelines, as merges and rollbacks always do; schedules are
	// byte-identical either way. selfCheck audits the patched dag and the
	// per-processor timeline state against a from-scratch rebuild after
	// every patch.
	forceRebuild, selfCheck bool
}

// ScheduleCache memoizes complete scheduling runs, keyed by the DAG's
// content and the decision-relevant options (machine, processors,
// insertion, ordering, assignment, lookahead, seed, path limit —
// everything that changes the output; Parallelism, Recorder, and Cache
// itself do not). Implementations must return schedules byte-identical to
// a fresh ScheduleDAG run with the same arguments, and must be safe for
// concurrent use — ScheduleBatch and cfg.Program.Compile call them from
// many workers at once. The canonical implementation is
// internal/schedcache.Cache; core depends only on this interface so the
// cache can build on core without an import cycle.
type ScheduleCache interface {
	// Schedule returns the memoized schedule for (g, opts), computing it
	// with ScheduleDAG on a miss. opts.Cache is ignored (the callee is the
	// cache); opts.Recorder, when non-nil, receives either the computing
	// run's full event stream or a single cache event on a hit.
	Schedule(g *dag.Graph, opts Options) (*Schedule, error)
}

// DefaultOptions returns the paper's default configuration on n processors.
func DefaultOptions(n int) Options {
	return Options{
		Processors: n,
		Machine:    SBM,
		Insertion:  Conservative,
		Ordering:   MaxHeightFirst,
		Assignment: ListAssignment,
	}
}

// MaxProcessors bounds Options.Processors: 32 times the paper's largest
// machine (128). The scheduler allocates several per-processor tables, so
// an unbounded count from a request or a flag could exhaust memory, which
// a Go program cannot recover from.
const MaxProcessors = 4096

// Validate checks option ranges.
func (o Options) Validate() error {
	if o.Processors < 1 {
		return fmt.Errorf("core: Processors = %d, need >= 1", o.Processors)
	}
	if o.Processors > MaxProcessors {
		return fmt.Errorf("core: Processors = %d, need <= %d", o.Processors, MaxProcessors)
	}
	if o.Lookahead < 0 {
		return fmt.Errorf("core: Lookahead = %d, need >= 0", o.Lookahead)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("core: Parallelism = %d, need >= 0", o.Parallelism)
	}
	return nil
}

// newRNG builds the deterministic tie-break source for a run.
func (o Options) newRNG() *rand.Rand {
	return rand.New(rand.NewSource(o.Seed))
}
