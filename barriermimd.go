// Package barriermimd reproduces "Static Scheduling for Barrier MIMD
// Architectures" (Zaafrani, Dietz, O'Keefe; Purdue TR-EE 90-10, 1990): a
// compiler pipeline that schedules basic blocks onto barrier MIMD machines,
// resolving most producer/consumer synchronizations statically by tracking
// minimum/maximum instruction execution times and inserting hardware
// barriers only where the static timing becomes too imprecise.
//
// The pipeline is:
//
//	source text ── Parse ──▶ *Program
//	*Program ──── Compile ─▶ *Block (naive tuples) ── Optimize ─▶ *Block
//	*Block ────── BuildDAG ▶ *Graph (instruction DAG)
//	*Graph ────── Schedule ▶ *Schedule (timelines + barrier dag + metrics)
//	*Schedule ─── Simulate ▶ *Run (discrete-event SBM/DBM execution)
//
// Convenience wrappers compose these steps; the underlying packages live in
// internal/ and are re-exported here by alias so that example programs and
// downstream users need only this import.
package barriermimd

import (
	"io"

	"barriermimd/internal/cfg"
	"barriermimd/internal/core"
	"barriermimd/internal/dag"
	"barriermimd/internal/exp"
	"barriermimd/internal/ir"
	"barriermimd/internal/lang"
	"barriermimd/internal/machine"
	"barriermimd/internal/metrics"
	"barriermimd/internal/mimd"
	"barriermimd/internal/obsv"
	"barriermimd/internal/opt"
	"barriermimd/internal/schedcache"
	"barriermimd/internal/synth"
	"barriermimd/internal/vliw"
)

// Core pipeline types, re-exported.
type (
	// Program is a parsed basic block of assignment statements.
	Program = lang.Program
	// Block is a sequence of tuples (three-address instructions).
	Block = ir.Block
	// Timing is an inclusive [min,max] execution-time range.
	Timing = ir.Timing
	// TimingModel maps instructions to timing ranges (Table 1).
	TimingModel = ir.TimingModel
	// Memory is the variable store used by the reference evaluators.
	Memory = ir.Memory
	// Graph is the instruction DAG of section 4.1.
	Graph = dag.Graph
	// Schedule is a barrier MIMD schedule with metrics.
	Schedule = core.Schedule
	// Options configures the scheduler.
	Options = core.Options
	// Metrics is the section 3.1 synchronization accounting.
	Metrics = core.Metrics
	// GenConfig parameterizes synthetic benchmark generation.
	GenConfig = synth.Config
	// SimConfig parameterizes a simulation run.
	SimConfig = machine.Config
	// Run is the outcome of one simulated execution.
	Run = machine.Result
	// SimPlan is a schedule compiled for repeated simulation: immutable,
	// shareable across goroutines, with per-run scratch recycled through an
	// internal pool.
	SimPlan = machine.Plan
	// SimBatch is the pooled result of one lane-parallel multi-seed
	// simulation (SimPlan.RunMany): per-lane times plus aggregate
	// statistics, recycled via Release.
	SimBatch = machine.BatchResult
	// SimBatchSummary aggregates a batch's per-lane finish times.
	SimBatchSummary = machine.BatchSummary
	// MachineKind selects the barrier hardware model (SBM or DBM).
	MachineKind = core.MachineKind
	// SimStats are the process-wide simulation throughput counters.
	SimStats = metrics.SimStats
	// TraceEvent is one structured trace record of the scheduler or
	// simulator; its schema is documented in OBSERVABILITY.md.
	TraceEvent = obsv.Event
	// TraceEventKind identifies a trace event's type.
	TraceEventKind = obsv.Kind
	// TraceRecorder consumes trace events; attach one via
	// Options.Recorder (scheduler) or SimConfig.Recorder (simulator).
	TraceRecorder = obsv.Recorder
	// TraceRing is a fixed-capacity allocation-free trace recorder.
	TraceRing = obsv.Ring
	// VLIWResult is a lock-step VLIW schedule (section 6 baseline).
	VLIWResult = vliw.Result
	// ExpConfig parameterizes an experiment reproduction.
	ExpConfig = exp.Config
	// ScheduleCache memoizes scheduling runs by DAG content; attach one
	// via Options.Cache. The concrete implementation is a sharded, bounded
	// LRU with per-key singleflight whose hits are byte-identical to fresh
	// runs (see internal/schedcache).
	ScheduleCache = schedcache.Cache
	// CacheStats are a schedule cache's traffic counters.
	CacheStats = metrics.MemoStats
)

// Machine kinds, insertion algorithms, and policies, re-exported.
const (
	SBM            = core.SBM
	DBM            = core.DBM
	Conservative   = core.Conservative
	Optimal        = core.Optimal
	NaiveInsertion = core.Naive
	MaxHeightFirst = core.MaxHeightFirst
	MinHeightFirst = core.MinHeightFirst
	ListAssignment = core.ListAssignment
	RoundRobin     = core.RoundRobin
	RandomTimes    = machine.RandomTimes
	MinTimes       = machine.MinTimes
	MaxTimes       = machine.MaxTimes
)

// Trace event kinds (TraceEventKind values). Scheduler kinds time-stamp
// with placement progress, simulator kinds with simulated time; the
// per-kind argument meanings are documented in OBSERVABILITY.md.
const (
	TraceBarrierInsert   = obsv.KindBarrierInsert
	TraceBarrierMerge    = obsv.KindBarrierMerge
	TraceMergeReject     = obsv.KindMergeReject
	TraceRollback        = obsv.KindRollback
	TraceRepair          = obsv.KindRepair
	TraceGraphPatch      = obsv.KindGraphPatch
	TraceGraphRebuild    = obsv.KindGraphRebuild
	TraceCacheStats      = obsv.KindCacheStats
	TraceSchedDone       = obsv.KindSchedDone
	TraceRunStart        = obsv.KindRunStart
	TraceBarrierFire     = obsv.KindBarrierFire
	TraceRunEnd          = obsv.KindRunEnd
	TraceSchedCacheHit   = obsv.KindSchedCacheHit
	TraceSchedCacheMiss  = obsv.KindSchedCacheMiss
	TraceSchedCacheWait  = obsv.KindSchedCacheWait
	TraceSchedCacheEvict = obsv.KindSchedCacheEvict
)

// DefaultTimings returns the Table 1 timing model.
func DefaultTimings() TimingModel { return ir.DefaultTimings() }

// DefaultOptions returns the paper's scheduler configuration on n
// processors (SBM, conservative insertion, h_max-first list assignment).
func DefaultOptions(n int) Options { return core.DefaultOptions(n) }

// Parse parses basic-block source text (assignment statements over
// + - * / % & | with C-like precedence).
func Parse(src string) (*Program, error) { return lang.Parse(src) }

// Generate synthesizes a random benchmark program per section 2.2.
func Generate(cfg GenConfig, seed int64) (*Program, error) { return synth.Generate(cfg, seed) }

// Compile lowers a program to tuples and applies the paper's local
// optimizations (CSE, constant folding, value propagation, DCE).
func Compile(p *Program) (*Block, error) {
	naive, err := lang.Compile(p)
	if err != nil {
		return nil, err
	}
	optimized, _, err := opt.Optimize(naive)
	return optimized, err
}

// BuildDAG constructs the instruction DAG under the Table 1 timings.
func BuildDAG(b *Block) (*Graph, error) { return dag.Build(b, ir.DefaultTimings()) }

// ScheduleGraph schedules an instruction DAG onto a barrier MIMD.
func ScheduleGraph(g *Graph, opts Options) (*Schedule, error) { return core.ScheduleDAG(g, opts) }

// ScheduleSource runs the whole pipeline on source text.
func ScheduleSource(src string, opts Options) (*Schedule, error) {
	p, err := Parse(src)
	if err != nil {
		return nil, err
	}
	b, err := Compile(p)
	if err != nil {
		return nil, err
	}
	g, err := BuildDAG(b)
	if err != nil {
		return nil, err
	}
	return ScheduleGraph(g, opts)
}

// Simulate executes a schedule on its machine with the given timing
// policy, returning per-instruction times and the completion time. It
// compiles a plan for the one run; sweeps should CompileSim once and call
// SimPlan.Run per seed — the results are byte-identical.
func Simulate(s *Schedule, cfg SimConfig) (*Run, error) {
	plan, err := machine.Compile(s, s.Opts.Machine)
	if err != nil {
		return nil, err
	}
	return plan.Run(cfg)
}

// CompileSim lowers a schedule into an immutable simulation plan for the
// given machine kind. Compile once, run many: SimPlan.Run executes the
// plan with a per-run SimConfig, recycling all mutable state through a
// pool, and is byte-identical to Simulate for the same inputs. For
// seed sweeps, SimPlan.RunMany simulates a whole seed slice per call
// through the lane-parallel batch kernel — each lane byte-identical to
// the corresponding SimPlan.Run — returning a pooled SimBatch.
func CompileSim(s *Schedule, kind MachineKind) (*SimPlan, error) { return machine.Compile(s, kind) }

// SimulationStats snapshots the process-wide simulation counters (plans
// compiled, plan runs, lane-parallel batches/lanes, scratch pool
// hits/misses).
func SimulationStats() SimStats { return machine.Stats() }

// NewTraceRing returns a trace recorder holding the newest capacity
// events; see OBSERVABILITY.md for the event schema.
func NewTraceRing(capacity int) *TraceRing { return obsv.NewRing(capacity) }

// WriteTraceJSONL renders a ring's events as JSON Lines, one event per
// line, oldest first (byte-identical for a fixed seed).
func WriteTraceJSONL(w io.Writer, r *TraceRing) error { return obsv.WriteJSONL(w, r) }

// WriteTraceChrome renders a ring's events as Chrome trace_event JSON,
// loadable in Perfetto or about:tracing: scheduler events on one process
// track in decision order, simulator events on another at their simulated
// times.
func WriteTraceChrome(w io.Writer, r *TraceRing) error { return obsv.WriteChromeTrace(w, r) }

// ScheduleBatch schedules every DAG across opts.Parallelism workers.
// Item i uses opts.Seed+i, so results — and, with opts.Recorder set, the
// merged trace stream — are identical for every worker count and with or
// without opts.Cache. Every item is attempted: errs[i] is item i's error
// and out[i] is nil exactly when it is set. err reports invalid opts only.
func ScheduleBatch(gs []*Graph, opts Options) (out []*Schedule, errs []error, err error) {
	return core.ScheduleBatch(gs, opts)
}

// NewScheduleCache returns a schedule cache bounded to capacity resident
// entries (<= 0 selects the default, 1024). Attach it via Options.Cache
// (ScheduleGraph, ScheduleBatch, CompileCF); hits are byte-identical to
// uncached runs, so a cache changes only the work performed.
func NewScheduleCache(capacity int) *ScheduleCache { return schedcache.New(capacity) }

// ScheduleVLIW schedules the DAG on a lock-step VLIW with the given number
// of units, all instructions at maximum time (the section 6 baseline).
func ScheduleVLIW(g *Graph, units int) (*VLIWResult, error) { return vliw.Schedule(g, units) }

// Experiments lists the reproducible tables/figures by name.
func Experiments() []string { return exp.Names() }

// RunExperiment reproduces a named table or figure and returns its
// rendered report.
func RunExperiment(name string, cfg ExpConfig) (string, error) {
	r, err := exp.Run(name, cfg)
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// Fig1Block returns the paper's Figure 1 example benchmark.
func Fig1Block() *Block { return ir.Fig1Block() }

// Control-flow extension types (the paper's named ongoing work: scheduling
// for programs with arbitrary control flow).
type (
	// CFProgram is a program in the extended language (if/else, while).
	CFProgram = lang.CFProgram
	// CFGProgram is a lowered control-flow graph of scheduled basic
	// blocks.
	CFGProgram = cfg.Program
	// CFRunConfig parameterizes whole-program execution.
	CFRunConfig = cfg.RunConfig
	// CFRunResult is a whole-program execution outcome.
	CFRunResult = cfg.RunResult
	// CFGenConfig parameterizes random control-flow benchmark synthesis.
	CFGenConfig = synth.CFConfig
)

// ParseCF parses the extended language with if/else and while statements.
func ParseCF(src string) (*CFProgram, error) { return lang.ParseCF(src) }

// GenerateCF synthesizes a random, guaranteed-terminating control-flow
// program.
func GenerateCF(cfgen CFGenConfig, seed int64) (*CFProgram, error) {
	return synth.GenerateCF(cfgen, seed)
}

// CompileCF lowers a control-flow program to a CFG, simplifies it (jump
// threading, block merging — each removed block boundary is one fewer
// runtime control barrier), and schedules every basic block with the
// section 4 pipeline. The machine executes one block at a time, separated
// by full barriers.
func CompileCF(p *CFProgram, opts Options) (*CFGProgram, error) {
	prog, err := cfg.Lower(p)
	if err != nil {
		return nil, err
	}
	prog.Simplify()
	if err := prog.Compile(opts, ir.DefaultTimings()); err != nil {
		return nil, err
	}
	return prog, nil
}

// Conventional-MIMD comparison types (the paper's proposed application of
// barrier scheduling to conventional machines).
type (
	// MIMDPlan is a directed-synchronization plan for a conventional
	// MIMD.
	MIMDPlan = mimd.Plan
	// MIMDConfig parameterizes the conventional machine.
	MIMDConfig = mimd.Config
)

// NewMIMDPlan derives the conventional-MIMD synchronization plan from a
// barrier schedule; with reduce set, transitively redundant directed
// synchronizations are removed (Shaffer-style).
func NewMIMDPlan(s *Schedule, reduce bool) *MIMDPlan { return mimd.NewPlan(s, reduce) }
