package cfg

import (
	"fmt"
	"strings"

	"barriermimd/internal/core"
	"barriermimd/internal/dag"
	"barriermimd/internal/ir"
	"barriermimd/internal/lang"
	"barriermimd/internal/machine"
	"barriermimd/internal/opt"
	"barriermimd/internal/pool"
)

// TermKind classifies a basic block's terminator.
type TermKind uint8

const (
	// Exit ends the program.
	Exit TermKind = iota
	// Jump transfers unconditionally to Terminator.True.
	Jump
	// Branch transfers to True if the condition variable is nonzero,
	// else to False.
	Branch
)

// Terminator ends a basic block.
type Terminator struct {
	Kind TermKind
	// CondVar is the compiler-generated variable holding the branch
	// condition (Branch only).
	CondVar string
	// True and False are successor block ids (Jump uses True).
	True, False int
}

func (t Terminator) String() string {
	switch t.Kind {
	case Exit:
		return "exit"
	case Jump:
		return fmt.Sprintf("jump B%d", t.True)
	case Branch:
		return fmt.Sprintf("branch %s ? B%d : B%d", t.CondVar, t.True, t.False)
	}
	return "?"
}

// BasicBlock is one straight-line region plus its terminator. After
// Compile it also carries the scheduled form.
type BasicBlock struct {
	ID      int
	Assigns []lang.Assign
	Term    Terminator

	// Filled by Program.Compile:
	Tuples *ir.Block
	Graph  *dag.Graph
	Sched  *core.Schedule
	// Plan is the block's schedule compiled for repeated simulation; loop
	// bodies execute their block once per dynamic iteration, so Run
	// amortizes all derived simulator state across iterations through it.
	Plan *machine.Plan
}

// Program is a control-flow graph of basic blocks.
type Program struct {
	Blocks []*BasicBlock
	Entry  int
	// condCount is the number of condition temporaries generated.
	condCount int
}

// Lower converts an extended-language program into a control-flow graph.
// Conditions become assignments to fresh temporaries (_c0, _c1, ...) at the
// end of the deciding block.
func Lower(p *lang.CFProgram) (*Program, error) {
	prog := &Program{}
	entry := prog.newBlock()
	prog.Entry = entry.ID
	last, err := prog.lower(p.Stmts, entry)
	if err != nil {
		return nil, err
	}
	last.Term = Terminator{Kind: Exit}
	return prog, nil
}

func (p *Program) newBlock() *BasicBlock {
	b := &BasicBlock{ID: len(p.Blocks)}
	p.Blocks = append(p.Blocks, b)
	return b
}

func (p *Program) freshCond() string {
	name := fmt.Sprintf("_c%d", p.condCount)
	p.condCount++
	return name
}

// lower appends stmts to cur, creating successor blocks as needed, and
// returns the block where control continues.
func (p *Program) lower(stmts []lang.Stmt, cur *BasicBlock) (*BasicBlock, error) {
	for _, s := range stmts {
		switch s := s.(type) {
		case lang.Assign:
			cur.Assigns = append(cur.Assigns, s)

		case lang.If:
			cond := p.freshCond()
			cur.Assigns = append(cur.Assigns, lang.Assign{Name: cond, RHS: s.Cond})
			thenB := p.newBlock()
			join := p.newBlock()
			elseTarget := join.ID
			var elseB *BasicBlock
			if s.Else != nil {
				elseB = p.newBlock()
				elseTarget = elseB.ID
			}
			cur.Term = Terminator{Kind: Branch, CondVar: cond, True: thenB.ID, False: elseTarget}
			thenEnd, err := p.lower(s.Then, thenB)
			if err != nil {
				return nil, err
			}
			thenEnd.Term = Terminator{Kind: Jump, True: join.ID}
			if elseB != nil {
				elseEnd, err := p.lower(s.Else, elseB)
				if err != nil {
					return nil, err
				}
				elseEnd.Term = Terminator{Kind: Jump, True: join.ID}
			}
			cur = join

		case lang.While:
			cond := p.freshCond()
			header := p.newBlock()
			body := p.newBlock()
			exit := p.newBlock()
			cur.Term = Terminator{Kind: Jump, True: header.ID}
			header.Assigns = append(header.Assigns, lang.Assign{Name: cond, RHS: s.Cond})
			header.Term = Terminator{Kind: Branch, CondVar: cond, True: body.ID, False: exit.ID}
			bodyEnd, err := p.lower(s.Body, body)
			if err != nil {
				return nil, err
			}
			bodyEnd.Term = Terminator{Kind: Jump, True: header.ID}
			cur = exit

		default:
			return nil, fmt.Errorf("cfg: unknown statement %T", s)
		}
	}
	return cur, nil
}

// Compile compiles and schedules every basic block with the section 4
// pipeline under the given scheduler options and timing model. Blocks are
// independent (each starts at a full machine-wide barrier), so they are
// compiled concurrently across up to opts.Parallelism workers
// (0 = GOMAXPROCS); every block's schedule depends only on its own
// contents and the options, so the result is identical for any
// Parallelism value.
//
// Each block schedules with a block-derived seed (opts.Seed + ID*7919),
// with or without opts.Cache: a cache only memoizes runs, so it never
// changes a block's schedule.
func (p *Program) Compile(opts core.Options, tm ir.TimingModel) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	return pool.ForEach(opts.Parallelism, len(p.Blocks), func(i int) error {
		b := p.Blocks[i]
		flat := &lang.Program{Stmts: b.Assigns}
		naive, err := lang.Compile(flat)
		if err != nil {
			return fmt.Errorf("cfg: block B%d: %w", b.ID, err)
		}
		optimized, _, err := opt.Optimize(naive)
		if err != nil {
			return fmt.Errorf("cfg: block B%d: %w", b.ID, err)
		}
		g, err := dag.Build(optimized, tm)
		if err != nil {
			return fmt.Errorf("cfg: block B%d: %w", b.ID, err)
		}
		blockOpts := opts
		blockOpts.Seed = opts.Seed + int64(b.ID)*7919
		s, err := core.ScheduleDAG(g, blockOpts)
		if err != nil {
			return fmt.Errorf("cfg: block B%d: %w", b.ID, err)
		}
		plan, err := machine.Compile(s, s.Opts.Machine)
		if err != nil {
			return fmt.Errorf("cfg: block B%d: %w", b.ID, err)
		}
		b.Tuples, b.Graph, b.Sched, b.Plan = optimized, g, s, plan
		return nil
	})
}

// Compiled reports whether Compile has run.
func (p *Program) Compiled() bool {
	return len(p.Blocks) > 0 && p.Blocks[0].Sched != nil
}

// Render lists the control-flow graph; compiled blocks include their
// schedule metrics.
func (p *Program) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "entry: B%d\n", p.Entry)
	for _, b := range p.Blocks {
		fmt.Fprintf(&sb, "B%d:\n", b.ID)
		for _, a := range b.Assigns {
			fmt.Fprintf(&sb, "    %s\n", a)
		}
		fmt.Fprintf(&sb, "    %s\n", b.Term)
		if b.Sched != nil {
			fmt.Fprintf(&sb, "    [%s]\n", b.Sched.Metrics)
		}
	}
	return sb.String()
}

// StaticMetrics sums the section 3.1 accounting over all compiled blocks.
func (p *Program) StaticMetrics() core.Metrics {
	var m core.Metrics
	for _, b := range p.Blocks {
		if b.Sched == nil {
			continue
		}
		bm := b.Sched.Metrics
		m.TotalImpliedSyncs += bm.TotalImpliedSyncs
		m.Barriers += bm.Barriers
		m.SerializedSyncs += bm.SerializedSyncs
		m.StaticAfterBarrier += bm.StaticAfterBarrier
		m.PathResolved += bm.PathResolved
		m.TimingResolved += bm.TimingResolved
		m.OptimalRescues += bm.OptimalRescues
		m.MergedBarriers += bm.MergedBarriers
		m.RepairedPairs += bm.RepairedPairs
	}
	return m
}

// DOT renders the control-flow graph in Graphviz dot format: blocks with
// their statements, solid edges for jumps, labeled edges for branches.
func (p *Program) DOT() string {
	var sb strings.Builder
	sb.WriteString("digraph cfg {\n  node [shape=box, fontname=\"monospace\"];\n")
	for _, b := range p.Blocks {
		var lines []string
		for _, a := range b.Assigns {
			lines = append(lines, a.String())
		}
		label := fmt.Sprintf("B%d\\n%s", b.ID, strings.Join(lines, "\\n"))
		label = strings.ReplaceAll(label, `"`, `\"`)
		shape := ""
		if b.ID == p.Entry {
			shape = ", penwidth=2"
		}
		fmt.Fprintf(&sb, "  b%d [label=\"%s\"%s];\n", b.ID, label, shape)
		switch b.Term.Kind {
		case Jump:
			fmt.Fprintf(&sb, "  b%d -> b%d;\n", b.ID, b.Term.True)
		case Branch:
			fmt.Fprintf(&sb, "  b%d -> b%d [label=\"%s\"];\n", b.ID, b.Term.True, b.Term.CondVar)
			fmt.Fprintf(&sb, "  b%d -> b%d [label=\"!%s\"];\n", b.ID, b.Term.False, b.Term.CondVar)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
