package exp

import (
	"fmt"
	"strings"

	"barriermimd/internal/cfg"
	"barriermimd/internal/core"
	"barriermimd/internal/ir"
	"barriermimd/internal/machine"
	"barriermimd/internal/metrics"
	"barriermimd/internal/synth"
)

// CFStudyResult characterizes the control-flow extension over a random
// program population: how much synchronization the per-block section 4
// scheduling still removes, and what the mandatory inter-block control
// barriers add at run time.
type CFStudyResult struct {
	// Programs is the population size.
	Programs int
	// Blocks is the static basic-block count per program (after
	// simplification).
	Blocks metrics.Summary
	// IntraBarriers is the static count of barriers inserted inside
	// basic blocks per program.
	IntraBarriers metrics.Summary
	// NoRuntimeSync is the per-program fraction of intra-block implied
	// synchronizations resolved without a runtime barrier.
	NoRuntimeSync metrics.Summary
	// DynamicBlocks and ControlBarriers are per-execution dynamic counts.
	DynamicBlocks, ControlBarriers metrics.Summary
	// Time is the mean execution time under random instruction timings.
	Time metrics.Summary
}

// CFStudy generates random terminating control-flow programs, compiles
// them with simplification, executes each once with random timings, and
// verifies the result against the reference evaluator.
func CFStudy(cfgc Config) (*CFStudyResult, error) {
	cfgc = cfgc.withDefaults()
	res := &CFStudyResult{Programs: cfgc.Runs}
	blocks := make([]float64, cfgc.Runs)
	intra := make([]float64, cfgc.Runs)
	noSync := make([]float64, cfgc.Runs)
	dyn := make([]float64, cfgc.Runs)
	ctrl := make([]float64, cfgc.Runs)
	times := make([]float64, cfgc.Runs)
	err := cfgc.forEach(cfgc.Runs, func(r int) error {
		seed := cfgc.seedAt(0, r)
		prog, err := synth.GenerateCF(synth.CFConfig{Statements: 30, Variables: 8}, seed)
		if err != nil {
			return err
		}
		p, err := cfg.Lower(prog)
		if err != nil {
			return err
		}
		p.Simplify()
		opts := core.DefaultOptions(4)
		opts.Seed = seed
		if err := p.Compile(opts, ir.DefaultTimings()); err != nil {
			return err
		}
		mem := ir.Memory{}
		for i := 0; i < 8; i++ {
			mem[synth.VarName(i)] = seed%23 - 11 + int64(i)
		}
		want, err := prog.Eval(mem, 0)
		if err != nil {
			return err
		}
		got, err := p.Run(mem, cfg.RunConfig{Policy: machine.RandomTimes, Seed: seed})
		if err != nil {
			return err
		}
		for v, w := range want {
			if got.Memory[v] != w {
				return fmt.Errorf("exp: cf program %d: %s = %d, want %d", r, v, got.Memory[v], w)
			}
		}
		m := p.StaticMetrics()
		blocks[r] = float64(len(p.Blocks))
		intra[r] = float64(m.Barriers)
		if m.TotalImpliedSyncs > 0 {
			noSync[r] = 1 - m.BarrierFraction()
		} else {
			noSync[r] = 1
		}
		dyn[r] = float64(len(got.Trace))
		ctrl[r] = float64(got.ControlBarriers)
		times[r] = float64(got.Time)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Blocks = metrics.Summarize(blocks)
	res.IntraBarriers = metrics.Summarize(intra)
	res.NoRuntimeSync = metrics.Summarize(noSync)
	res.DynamicBlocks = metrics.Summarize(dyn)
	res.ControlBarriers = metrics.Summarize(ctrl)
	res.Time = metrics.Summarize(times)
	return res, nil
}

// Render formats the control-flow study.
func (r *CFStudyResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Control-flow extension study (%d random programs, 30 statements, 8 vars, 4 PEs)\n", r.Programs)
	fmt.Fprintf(&sb, "(every execution verified against the reference interpreter)\n\n")
	fmt.Fprintf(&sb, "%-40s %10.2f\n", "basic blocks per program (simplified)", r.Blocks.Mean)
	fmt.Fprintf(&sb, "%-40s %10.2f\n", "intra-block barriers per program", r.IntraBarriers.Mean)
	fmt.Fprintf(&sb, "%-40s %9.1f%%\n", "intra-block syncs without barrier", 100*r.NoRuntimeSync.Mean)
	fmt.Fprintf(&sb, "%-40s %10.2f\n", "dynamic blocks per execution", r.DynamicBlocks.Mean)
	fmt.Fprintf(&sb, "%-40s %10.2f\n", "control barriers per execution", r.ControlBarriers.Mean)
	fmt.Fprintf(&sb, "%-40s %10.1f\n", "mean execution time", r.Time.Mean)
	fmt.Fprintf(&sb, "\nwithin blocks the section 4 machinery keeps working under arbitrary control\n")
	fmt.Fprintf(&sb, "flow; the control barriers are the fixed cost of branching, which a VLIW\n")
	fmt.Fprintf(&sb, "cannot express at all (the paper's motivating argument).\n")
	return sb.String()
}
