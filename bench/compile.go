package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"sync"
	"time"

	"barriermimd/internal/core"
	"barriermimd/internal/dag"
	"barriermimd/internal/ir"
	"barriermimd/internal/lang"
	"barriermimd/internal/machine"
	"barriermimd/internal/opt"
	"barriermimd/internal/schedcache"
	"barriermimd/internal/synth"
)

// digest hashes the deterministic outputs of a run.
type digest struct{ hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) sum() string { return hex.EncodeToString(d.Sum(nil)) }

// writeInts appends integers to a digest in a fixed encoding.
func writeInts(w io.Writer, xs ...int64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		w.Write(b[:])
	}
}

// streamSeed derives the program seed of item i of a seed's input stream.
// Streams of neighbouring seeds and of the workloads (offset) never
// overlap for the item counts one run reaches.
func streamSeed(seed, offset, i int64) int64 {
	return seed*1_000_003 + offset + i
}

// compiled is the output of the front end on one program.
type compiled struct {
	prog  *lang.Program
	block *ir.Block // optimized tuples
	stats opt.Stats
	g     *dag.Graph
}

// frontEnd runs parse → compile → optimize → build, each under its own
// span when traced.
func frontEnd(tr *tracer, op *frame, src string) (compiled, error) {
	var c compiled
	f := tr.child(op, "lang.Parse")
	prog, err := lang.Parse(src)
	f.end()
	if err != nil {
		return c, fmt.Errorf("parse: %w", err)
	}
	c.prog = prog
	f = tr.child(op, "lang.Compile")
	naive, err := lang.Compile(prog)
	f.end()
	if err != nil {
		return c, fmt.Errorf("compile: %w", err)
	}
	f = tr.child(op, "opt.Optimize")
	c.block, c.stats, err = opt.Optimize(naive)
	f.end()
	if err != nil {
		return c, fmt.Errorf("optimize: %w", err)
	}
	f = tr.child(op, "dag.Build")
	c.g, err = dag.Build(c.block, ir.DefaultTimings())
	f.end()
	if err != nil {
		return c, fmt.Errorf("build dag: %w", err)
	}
	return c, nil
}

// schedule runs the untraced library path the serve oracles compare
// against: front end, then ScheduleDAG.
func schedule(src string, opts core.Options) (*core.Schedule, error) {
	c, err := frontEnd(nil, nil, src)
	if err != nil {
		return nil, err
	}
	return core.ScheduleDAG(c.g, opts)
}

// blockInput is one compile-unique operation.
type blockInput struct {
	idx     int64
	seed    int64
	src     string
	procs   int
	machine core.MachineKind
}

// compileMix sizes the compile-unique blocks. Statement counts and
// processor counts cycle independently, so every pairing occurs. Blocks
// on the smallest machine are scheduled for the SBM and the rest for the
// DBM: SBM schedules on 8 or more processors hit the known
// "no sound barrier placement" failure on roughly one block in a few
// thousand (see README.md), and the workload must not fail.
type compileMix struct {
	stmts  []int
	procs  []int
	vars   int
	prefix int // operations whose outputs are digested
	buffer int // inputs the generator keeps ready
}

var (
	compileFull = compileMix{stmts: []int{20, 60, 200}, procs: []int{4, 8, 16}, vars: 10, prefix: 64, buffer: 256}
	compileTiny = compileMix{stmts: []int{5, 10, 20}, procs: []int{2, 4, 8}, vars: 6, prefix: 8, buffer: 16}
)

const (
	compileStream = 0
	warmStream    = 700_000
)

func (mx compileMix) input(seed, stream, i int64) (blockInput, error) {
	in := blockInput{idx: i, seed: streamSeed(seed, stream, i),
		procs: mx.procs[(i/int64(len(mx.stmts)))%int64(len(mx.procs))], machine: core.DBM}
	if in.procs == mx.procs[0] {
		in.machine = core.SBM
	}
	prog, err := synth.Generate(synth.Config{Statements: mx.stmts[i%int64(len(mx.stmts))], Variables: mx.vars}, in.seed)
	if err != nil {
		return in, err
	}
	in.src = prog.String()
	return in, nil
}

// generator produces compile-unique inputs on its own goroutine, ahead of
// the single caller.
type generator struct {
	ch   chan blockInput
	stop chan struct{}
	wg   sync.WaitGroup
}

func startGenerator(mx compileMix, seed int64) *generator {
	g := &generator{ch: make(chan blockInput, mx.buffer), stop: make(chan struct{})}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer close(g.ch)
		for i := int64(0); ; i++ {
			in, err := mx.input(seed, compileStream, i)
			if err != nil {
				return // synth rejects only a bad mix, which the tests rule out
			}
			select {
			case g.ch <- in:
			case <-g.stop:
				return
			}
		}
	}()
	return g
}

func (g *generator) close() {
	close(g.stop)
	g.wg.Wait()
}

type compileUnique struct {
	mx  compileMix
	gen *generator
	mem ir.Memory // fixed memory of the evaluator oracle

	// Per-layer accumulators over every operation.
	ops, tuplesIn, tuplesOut, nodes, edges, merged, repaired int64
	jsonBytes, schedObjs, schedBytes                         uint64
	stages                                                   map[string]time.Duration
	pathHits, pathLookups, patches, mutations                uint64
	// Deterministic accumulators over the digested prefix.
	barriers, syncs int64
}

func setupCompileUnique(o *options) (instance, error) {
	mx := compileFull
	if o.tiny {
		mx = compileTiny
	}
	c := &compileUnique{mx: mx, mem: ir.Memory{}, stages: map[string]time.Duration{}}
	for v := 0; v < mx.vars; v++ {
		c.mem[synth.VarName(v)] = int64(7*v - 20)
	}
	c.gen = startGenerator(mx, o.seed)
	// Warm the scheduler's and the simulator's pools with one block of
	// every (statements, processors) pairing from a separate stream, then
	// wait until the generator has filled its buffer.
	for i := int64(0); i < int64(len(mx.stmts)*len(mx.procs)); i++ {
		in, err := mx.input(o.seed, warmStream, i)
		if err != nil {
			c.close()
			return nil, err
		}
		if _, err := c.op(nil, nil, in); err != nil {
			c.close()
			return nil, fmt.Errorf("warm block %d: %w", i, err)
		}
	}
	for len(c.gen.ch) < cap(c.gen.ch) {
		time.Sleep(100 * time.Microsecond)
	}
	return c, nil
}

func (c *compileUnique) close() { c.gen.close() }

// blockOut is what one compile-unique operation produced.
type blockOut struct {
	compiled
	sched *core.Schedule
	json  []byte
}

// op is one compile-unique operation: the front end, ScheduleDAG,
// VerifyStatic, ExportJSON, plan compilation and one all-maximum-times
// simulation whose dependences are checked.
func (c *compileUnique) op(tr *tracer, root *frame, in blockInput) (blockOut, error) {
	var out blockOut
	var err error
	if out.compiled, err = frontEnd(tr, root, in.src); err != nil {
		return out, err
	}
	opts := core.DefaultOptions(in.procs)
	opts.Machine = in.machine
	opts.Seed = in.seed
	o0, b0 := tr.heapAllocs()
	f := tr.child(root, "core.ScheduleDAG")
	out.sched, err = core.ScheduleDAG(out.g, opts)
	f.end()
	o1, b1 := tr.heapAllocs()
	c.schedObjs += o1 - o0
	c.schedBytes += b1 - b0
	if err != nil {
		return out, fmt.Errorf("schedule: %w", err)
	}
	f = tr.child(root, "core.VerifyStatic")
	err = out.sched.VerifyStatic()
	f.end()
	if err != nil {
		return out, fmt.Errorf("verify static: %w", err)
	}
	f = tr.child(root, "core.ExportJSON")
	out.json, err = out.sched.ExportJSON()
	f.end()
	if err != nil {
		return out, fmt.Errorf("export json: %w", err)
	}
	f = tr.child(root, "machine.Compile")
	plan, err := machine.Compile(out.sched, in.machine)
	f.end()
	if err != nil {
		return out, fmt.Errorf("compile plan: %w", err)
	}
	f = tr.child(root, "machine.Plan.Run")
	res, err := plan.Run(machine.Config{Policy: machine.MaxTimes})
	f.end()
	if err != nil {
		return out, fmt.Errorf("simulate: %w", err)
	}
	f = tr.child(root, "machine.CheckDependences")
	err = res.CheckDependences()
	f.end()
	res.Release()
	if err != nil {
		return out, fmt.Errorf("check dependences: %w", err)
	}
	return out, nil
}

func (c *compileUnique) run(tr *tracer, deadline time.Time, m *measurement) error {
	for n := int64(0); n < int64(c.mx.prefix) || time.Now().Before(deadline); n++ {
		in, ok := <-c.gen.ch
		if !ok {
			return fmt.Errorf("input generator stopped after %d blocks", n)
		}
		m.attempted++
		root := tr.root(in.idx, opSpan)
		t0 := time.Now()
		out, err := c.op(tr, &root, in)
		lat := time.Since(t0)
		root.end()
		if err != nil {
			m.fail(fmt.Errorf("block %d (seed %d): %w", in.idx, in.seed, err))
			continue
		}
		if err := evalMatches(out.prog, out.block, c.mem); err != nil {
			m.fail(fmt.Errorf("block %d (seed %d): %w", in.idx, in.seed, err))
			continue
		}
		m.good++
		m.samples = append(m.samples, sample{float64(lat) / 1e6, 1})
		c.account(out)
		if n < int64(c.mx.prefix) {
			mt := out.sched.Metrics
			c.barriers += int64(mt.Barriers)
			c.syncs += int64(mt.TotalImpliedSyncs)
			writeInts(m.digest, in.idx)
			m.digest.Write(out.json)
		}
		if tr != nil {
			// A fresh graph has never been fingerprinted, so this times
			// the refinement itself rather than the per-graph memo.
			f := tr.root(in.idx, "schedcache.FingerprintOf")
			schedcache.FingerprintOf(out.g)
			f.end()
		}
	}
	return nil
}

// evalMatches is the evaluator oracle: the optimized tuples must compute
// what the source program computes.
func evalMatches(prog *lang.Program, block *ir.Block, mem ir.Memory) error {
	want := prog.Eval(mem)
	got, err := block.Eval(mem)
	if err != nil {
		return fmt.Errorf("evaluate optimized block: %w", err)
	}
	for v, x := range want {
		if got[v] != x {
			return fmt.Errorf("optimized block computes %s = %d, source computes %d", v, got[v], x)
		}
	}
	return nil
}

func (c *compileUnique) account(out blockOut) {
	c.ops++
	c.tuplesIn += int64(out.stats.Input)
	c.tuplesOut += int64(out.stats.Output)
	c.nodes += int64(out.g.N)
	c.edges += int64(len(out.g.Edges()))
	c.jsonBytes += uint64(len(out.json))
	mt := out.sched.Metrics
	c.merged += int64(mt.MergedBarriers)
	c.repaired += int64(mt.RepairedPairs)
	c.pathHits += mt.PathCache.Hits
	c.pathLookups += mt.PathCache.Lookups()
	c.patches += mt.Maint.Patches
	c.mutations += mt.Maint.Patches + mt.Maint.Rebuilds
	if mt.Stages != nil {
		for _, s := range []string{"order", "place", "merge", "verify", "finalize"} {
			c.stages[s] += mt.Stages.Total(s)
		}
	}
}

func (c *compileUnique) verify(_ *tracer, m *measurement) error {
	ops := float64(c.ops)
	l := m.layer
	l["opt.shrink_frac"] = ratio(float64(c.tuplesIn-c.tuplesOut), float64(c.tuplesIn))
	l["dag.nodes_mean"] = ratio(float64(c.nodes), ops)
	l["dag.edges_mean"] = ratio(float64(c.edges), ops)
	l["core.schedule_allocs"] = ratio(float64(c.schedObjs), ops)
	l["core.schedule_kib"] = ratio(float64(c.schedBytes)/1024, ops)
	for s, d := range c.stages {
		l["core.stage."+s+"_us"] = ratio(float64(d)/1e3, ops)
	}
	l["core.pathcache_hit_frac"] = ratio(float64(c.pathHits), float64(c.pathLookups))
	l["core.maint_patch_frac"] = ratio(float64(c.patches), float64(c.mutations))
	l["core.merged_per_block"] = ratio(float64(c.merged), ops)
	l["core.repaired_per_block"] = ratio(float64(c.repaired), ops)
	l["core.export_json_kib"] = ratio(float64(c.jsonBytes)/1024, ops)
	l["core.barrier_frac"] = ratio(float64(c.barriers), float64(c.syncs))
	return nil
}

// spanMetrics maps per-layer metrics to the mean duration of one span
// name; every workload reports them from its own trace.
var spanMetrics = []struct{ metric, span string }{
	{"lang.parse_us", "lang.Parse"},
	{"lang.compile_us", "lang.Compile"},
	{"opt.optimize_us", "opt.Optimize"},
	{"dag.build_us", "dag.Build"},
	{"core.schedule_us", "core.ScheduleDAG"},
	{"core.verify_static_us", "core.VerifyStatic"},
	{"core.export_json_us", "core.ExportJSON"},
	{"machine.compile_us", "machine.Compile"},
	{"machine.check_deps_us", "machine.CheckDependences"},
	{"schedcache.fingerprint_cold_us", "schedcache.FingerprintOf"},
}

// knownFailures schedules the inputs README.md lists as known scheduler
// failures (bmgen -stmts 200 -vars 10 -seed S | bmsched -procs 8 ...)
// and counts how many still fail. A fix shows as this count falling.
func knownFailures() int {
	cases := []struct {
		seed      int64
		insertion core.Insertion
	}{
		{1003131, core.Conservative},
		{5021, core.Optimal},
	}
	n := 0
	for _, k := range cases {
		prog, err := synth.Generate(synth.Config{Statements: 200, Variables: 10}, k.seed)
		if err != nil {
			n++
			continue
		}
		opts := core.DefaultOptions(8)
		opts.Insertion = k.insertion
		if _, err := schedule(prog.String(), opts); err != nil {
			n++
		}
	}
	return n
}
