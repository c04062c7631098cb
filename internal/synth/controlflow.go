package synth

import (
	"fmt"
	"math/rand"
	"strconv"

	"barriermimd/internal/ir"
	"barriermimd/internal/lang"
)

// CFConfig parameterizes random generation of control-flow programs for
// the cfg extension. Generated programs always terminate: every while loop
// uses a dedicated countdown counter initialized to a bounded constant and
// decremented exactly once per iteration, and the counter is never
// assigned elsewhere.
type CFConfig struct {
	// Statements is the approximate number of assignment statements.
	Statements int
	// Variables is the data-variable pool size (loop counters are extra).
	Variables int
	// IfProb and WhileProb are the per-slot probabilities of emitting a
	// conditional or a loop instead of an assignment. Defaults: 0.15 and
	// 0.08.
	IfProb, WhileProb float64
	// MaxDepth bounds control-structure nesting. Defaults to 3.
	MaxDepth int
	// MaxIterations bounds each loop's trip count. Defaults to 6.
	MaxIterations int
}

func (c CFConfig) withDefaults() CFConfig {
	if c.IfProb == 0 {
		c.IfProb = 0.15
	}
	if c.WhileProb == 0 {
		c.WhileProb = 0.08
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 3
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 6
	}
	return c
}

// Validate checks the configuration.
func (c CFConfig) Validate() error {
	if c.Statements < 1 {
		return fmt.Errorf("synth: Statements = %d, need >= 1", c.Statements)
	}
	if c.Variables < 2 {
		return fmt.Errorf("synth: Variables = %d, need >= 2", c.Variables)
	}
	return nil
}

// GenerateCF produces a random terminating control-flow program. The same
// (CFConfig, seed) pair always yields the same program.
func GenerateCF(cfg CFConfig, seed int64) (*lang.CFProgram, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	g := &cfGen{cfg: cfg, rng: rng}
	prog := &lang.CFProgram{Stmts: flattenStmts(g.stmts(cfg.Statements, 0))}
	return prog, nil
}

// MustGenerateCF is a fixture helper that panics on configuration errors.
func MustGenerateCF(cfg CFConfig, seed int64) *lang.CFProgram {
	p, err := GenerateCF(cfg, seed)
	if err != nil {
		panic(fmt.Sprintf("synth.MustGenerateCF: %v", err))
	}
	return p
}

type cfGen struct {
	cfg      CFConfig
	rng      *rand.Rand
	loops    int
	assigned int
}

func (g *cfGen) variable() lang.Expr {
	return lang.Var{Name: VarName(g.rng.Intn(g.cfg.Variables))}
}

func (g *cfGen) operand() lang.Expr {
	if g.rng.Float64() < 0.15 {
		return lang.Const{Value: int64(g.rng.Intn(99) + 1)}
	}
	return g.variable()
}

// expr builds a small random expression with at least one variable leaf.
func (g *cfGen) expr() lang.Expr {
	e := g.variable()
	ops := 1
	for ops < 3 && g.rng.Float64() < 0.35 {
		ops++
	}
	out := lang.Expr(e)
	for k := 1; k < ops; k++ {
		op := Table1Frequencies().pick(g.rng)
		if g.rng.Intn(2) == 0 {
			out = lang.Binary{Op: op, L: out, R: g.operand()}
		} else {
			out = lang.Binary{Op: op, L: g.operand(), R: out}
		}
	}
	return out
}

func (g *cfGen) assign() lang.Stmt {
	g.assigned++
	return lang.Assign{Name: VarName(g.rng.Intn(g.cfg.Variables)), RHS: g.expr()}
}

// stmts emits approximately budget assignment statements, mixing in
// conditionals and loops up to the depth bound.
func (g *cfGen) stmts(budget, depth int) []lang.Stmt {
	var out []lang.Stmt
	for budget > 0 {
		r := g.rng.Float64()
		switch {
		case depth < g.cfg.MaxDepth && r < g.cfg.WhileProb && budget >= 3:
			inner := 1 + g.rng.Intn(budget/2+1)
			out = append(out, g.whileLoop(inner, depth+1))
			budget -= inner + 1
		case depth < g.cfg.MaxDepth && r < g.cfg.WhileProb+g.cfg.IfProb && budget >= 2:
			inner := 1 + g.rng.Intn(budget/2+1)
			st := lang.If{Cond: g.expr(), Then: g.stmts(inner, depth+1)}
			if g.rng.Intn(2) == 0 {
				els := 1 + g.rng.Intn(budget/2+1)
				st.Else = g.stmts(els, depth+1)
				budget -= els
			}
			out = append(out, st)
			budget -= inner + 1
		default:
			out = append(out, g.assign())
			budget--
		}
	}
	return out
}

// whileLoop builds a guaranteed-terminating countdown loop.
func (g *cfGen) whileLoop(bodyBudget, depth int) lang.Stmt {
	counter := "_l" + strconv.Itoa(g.loops)
	g.loops++
	trips := int64(1 + g.rng.Intn(g.cfg.MaxIterations))
	body := g.stmts(bodyBudget, depth)
	body = append(body, lang.Assign{
		Name: counter,
		RHS:  lang.Binary{Op: ir.Sub, L: lang.Var{Name: counter}, R: lang.Const{Value: 1}},
	})
	return loopWrapper{
		init: lang.Assign{Name: counter, RHS: lang.Const{Value: trips}},
		loop: lang.While{Cond: lang.Var{Name: counter}, Body: body},
	}
}

// loopWrapper bundles the counter initialization with its loop so the two
// stay adjacent; it flattens in flattenStmts.
type loopWrapper struct {
	init lang.Assign
	loop lang.While
}

func (l loopWrapper) String() string {
	return l.init.String() + "\n" + l.loop.String()
}

// Flatten expands generator-internal wrapper statements into plain
// language statements; GenerateCF output is already flattened.
func flattenStmts(stmts []lang.Stmt) []lang.Stmt {
	var out []lang.Stmt
	for _, s := range stmts {
		switch s := s.(type) {
		case loopWrapper:
			out = append(out, s.init, lang.While{Cond: s.loop.Cond, Body: flattenStmts(s.loop.Body)})
		case lang.If:
			out = append(out, lang.If{Cond: s.Cond, Then: flattenStmts(s.Then), Else: flattenIfNotNil(s.Else)})
		case lang.While:
			out = append(out, lang.While{Cond: s.Cond, Body: flattenStmts(s.Body)})
		default:
			out = append(out, s)
		}
	}
	return out
}

func flattenIfNotNil(stmts []lang.Stmt) []lang.Stmt {
	if stmts == nil {
		return nil
	}
	return flattenStmts(stmts)
}
