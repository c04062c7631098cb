package synth

import (
	"fmt"
	"math/rand"
	"strconv"

	"barriermimd/internal/ir"
	"barriermimd/internal/lang"
)

// FrequencyTable lists binary operators with relative weights.
type FrequencyTable []struct {
	Op     ir.Op
	Weight float64
}

// Table1Frequencies returns the paper's operator mix.
func Table1Frequencies() FrequencyTable {
	return FrequencyTable{
		{ir.Add, 45.8},
		{ir.Sub, 33.9},
		{ir.And, 8.8},
		{ir.Or, 5.2},
		{ir.Mul, 2.9},
		{ir.Div, 2.2},
		{ir.Mod, 1.2},
	}
}

func (ft FrequencyTable) total() float64 {
	var sum float64
	for _, e := range ft {
		sum += e.Weight
	}
	return sum
}

// pick draws an operator according to the weights.
func (ft FrequencyTable) pick(rng *rand.Rand) ir.Op {
	r := rng.Float64() * ft.total()
	for _, e := range ft {
		r -= e.Weight
		if r < 0 {
			return e.Op
		}
	}
	return ft[len(ft)-1].Op
}

// Config parameterizes benchmark synthesis. The paper's parameter ranges
// are 5–60 statements (up to 100 in figure 17), 2–15 variables, and a
// machine of 2–128 processors (the machine size is a scheduling parameter,
// not a generation parameter).
type Config struct {
	// Statements is the number of assignment statements (paper: 5–60,
	// figure 17 uses 100).
	Statements int
	// Variables is the number of distinct variable names; it corresponds
	// roughly to the parallelism width after optimization (paper: 2–15).
	Variables int
	// Constants is the number of distinct constant values available to
	// the generator.
	Constants int
	// ConstProb is the probability that an operand is a constant rather
	// than a variable. Defaults to 0.15.
	ConstProb float64
	// ExtraOpProb is the probability of extending a statement's RHS by one
	// more operator (geometric tail, capped at MaxOps). Defaults to 0.35,
	// which keeps most statements at one or two operators — the shape that
	// lands the optimized-DAG edge counts of the paper's figure 14
	// population (65–132 implied synchronizations for 60–100 statements).
	ExtraOpProb float64
	// MaxOps caps the number of binary operators per statement.
	// Defaults to 3.
	MaxOps int
	// Frequencies is the operator mix; defaults to Table1Frequencies.
	Frequencies FrequencyTable
}

// withDefaults fills zero fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.ConstProb == 0 {
		c.ConstProb = 0.15
	}
	if c.ExtraOpProb == 0 {
		c.ExtraOpProb = 0.35
	}
	if c.MaxOps == 0 {
		c.MaxOps = 3
	}
	if c.Frequencies == nil {
		c.Frequencies = Table1Frequencies()
	}
	if c.Constants == 0 {
		c.Constants = 8
	}
	return c
}

// Validate checks the configuration ranges.
func (c Config) Validate() error {
	if c.Statements < 1 {
		return fmt.Errorf("synth: Statements = %d, need >= 1", c.Statements)
	}
	if c.Variables < 2 {
		return fmt.Errorf("synth: Variables = %d, need >= 2", c.Variables)
	}
	return nil
}

// VarName returns the generator's name for variable i: v0, v1, ...
func VarName(i int) string { return "v" + strconv.Itoa(i) }

// Generate produces a random program. The same (Config, seed) pair always
// yields the same program.
func Generate(cfg Config, seed int64) (*lang.Program, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))

	// Constant pool: small positive values; never zero, so that division
	// and modulus by a constant are well-defined without triggering the
	// total-semantics fallback, and folding keeps values bounded.
	consts := make([]int64, cfg.Constants)
	for i := range consts {
		consts[i] = int64(rng.Intn(99) + 1)
	}

	operand := func() lang.Expr {
		if rng.Float64() < cfg.ConstProb {
			return lang.Const{Value: consts[rng.Intn(len(consts))]}
		}
		return lang.Var{Name: VarName(rng.Intn(cfg.Variables))}
	}

	prog := &lang.Program{}
	for s := 0; s < cfg.Statements; s++ {
		// RHS: operand (op operand)+ with a geometric number of operators.
		// The first operand is always a variable so that no statement is a
		// pure constant expression: an early all-constant store would let
		// the optimizer fold away entire small-variable-pool benchmarks,
		// which the paper's 2-variable populations clearly did not do.
		expr := lang.Expr(lang.Var{Name: VarName(rng.Intn(cfg.Variables))})
		nops := 1
		for nops < cfg.MaxOps && rng.Float64() < cfg.ExtraOpProb {
			nops++
		}
		for k := 0; k < nops; k++ {
			op := cfg.Frequencies.pick(rng)
			// Randomize association to vary DAG shapes.
			if rng.Intn(2) == 0 {
				expr = lang.Binary{Op: op, L: expr, R: operand()}
			} else {
				expr = lang.Binary{Op: op, L: operand(), R: expr}
			}
		}
		prog.Stmts = append(prog.Stmts, lang.Assign{
			Name: VarName(rng.Intn(cfg.Variables)),
			RHS:  expr,
			Line: s + 1,
		})
	}
	return prog, nil
}

// MustGenerate is a fixture helper that panics on configuration errors.
func MustGenerate(cfg Config, seed int64) *lang.Program {
	p, err := Generate(cfg, seed)
	if err != nil {
		panic(fmt.Sprintf("synth.MustGenerate: %v", err))
	}
	return p
}
