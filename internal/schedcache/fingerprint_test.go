package schedcache_test

import (
	"testing"

	"barriermimd/internal/dag"
	"barriermimd/internal/ir"
	"barriermimd/internal/lang"
	"barriermimd/internal/opt"
	"barriermimd/internal/schedcache"
	"barriermimd/internal/synth"
)

// buildGraph compiles, optimizes, and builds the DAG for a source program.
func buildGraph(t *testing.T, src string) *dag.Graph {
	t.Helper()
	naive, err := lang.Compile(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	optb, _, err := opt.Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	return mustDAG(t, optb)
}

// synthGraph builds the DAG for a synthetic benchmark program.
func synthGraph(t *testing.T, stmts, vars int, seed int64) *dag.Graph {
	t.Helper()
	prog := synth.MustGenerate(synth.Config{Statements: stmts, Variables: vars}, seed)
	naive, err := lang.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	optb, _, err := opt.Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	return mustDAG(t, optb)
}

func mustDAG(t *testing.T, b *ir.Block) *dag.Graph {
	t.Helper()
	g, err := dag.Build(b, ir.DefaultTimings())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// chainBlock appends one independent load-load-op-store chain to b.
func chainBlock(b *ir.Block, op ir.Op, src1, src2, dst string) {
	l1 := b.Append(ir.Tuple{Op: ir.Load, Var: src1})
	l2 := b.Append(ir.Tuple{Op: ir.Load, Var: src2})
	o := b.Append(ir.Tuple{Op: op, Args: [2]int{l1, l2}})
	b.Append(ir.Tuple{Op: ir.Store, Var: dst, Args: [2]int{o, ir.NoArg}})
}

// isomorphPair builds two graphs containing the same two independent
// chains (one Add, one Mul) appended in opposite orders: isomorphic as
// labeled graphs, but with different content at each node index.
func isomorphPair(t *testing.T) (*dag.Graph, *dag.Graph) {
	t.Helper()
	var a, b ir.Block
	chainBlock(&a, ir.Add, "p", "q", "r")
	chainBlock(&a, ir.Mul, "x", "y", "z")
	chainBlock(&b, ir.Mul, "x", "y", "z")
	chainBlock(&b, ir.Add, "p", "q", "r")
	return mustDAG(t, &a), mustDAG(t, &b)
}

func fp(g *dag.Graph) schedcache.Fingerprint { return schedcache.FingerprintOf(g) }

func TestFingerprintIdenticalGraphsCollide(t *testing.T) {
	const src = "c = a + b\nd = c * c\ne = d - a"
	g1 := buildGraph(t, src)
	g2 := buildGraph(t, src)
	if g1 == g2 {
		t.Fatal("want distinct graph objects")
	}
	if !dag.Equal(g1, g2) {
		t.Fatal("same source must build Equal graphs")
	}
	if fp(g1) != fp(g2) {
		t.Fatalf("identical graphs got different fingerprints: %x vs %x", fp(g1), fp(g2))
	}
}

func TestFingerprintSeparatesLabels(t *testing.T) {
	g1 := buildGraph(t, "c = a + b")
	g2 := buildGraph(t, "c = a * b")
	if fp(g1) == fp(g2) {
		t.Fatal("changing an op must change the fingerprint")
	}
}

func TestFingerprintSeparatesStructure(t *testing.T) {
	// Same op multiset, different wiring: d consumes c in one graph and a
	// fresh load in the other.
	g1 := buildGraph(t, "c = a + b\nd = c + e")
	g2 := buildGraph(t, "c = a + b\nd = f + e")
	if fp(g1) == fp(g2) {
		t.Fatal("changing an edge must change the fingerprint")
	}
}

func TestFingerprintSeparatesSynthCorpus(t *testing.T) {
	// 40 distinct synthetic workloads must yield 40 distinct fingerprints;
	// identical regeneration must reproduce the same fingerprint.
	seen := make(map[schedcache.Fingerprint]int64)
	for seed := int64(0); seed < 40; seed++ {
		g := synthGraph(t, 30, 5, seed)
		f := fp(g)
		if prev, dup := seen[f]; dup {
			t.Fatalf("seeds %d and %d collided on %x", prev, seed, f)
		}
		seen[f] = seed
		if f != fp(synthGraph(t, 30, 5, seed)) {
			t.Fatalf("seed %d: regeneration changed the fingerprint", seed)
		}
	}
}

// TestTextFingerprintIsStable pins TextFingerprint to fixed values, so a
// source key's trace arguments mean the same text in every process and on
// every architecture.
func TestTextFingerprintIsStable(t *testing.T) {
	for _, tc := range []struct {
		src    string
		hi, lo uint64
	}{
		{"c = a + b\nd = c * c\n", 0x2aca638f8780ecca, 0x587e5d195b49ccc},
		{"x", 0xf6eba8b9cc9a8f10, 0xe347a98cf089def},
	} {
		if got := schedcache.TextFingerprint(tc.src); got != (schedcache.Fingerprint{Hi: tc.hi, Lo: tc.lo}) {
			t.Errorf("TextFingerprint(%q) = %#x, want {%#x %#x}", tc.src, got, tc.hi, tc.lo)
		}
	}
}

// TestTextFingerprintSeparatesTexts: every prefix of a text, and a copy
// with one byte changed at each position, hashes apart from the rest.
func TestTextFingerprintSeparatesTexts(t *testing.T) {
	const src = "c = a + b\nd = c * c\ne = d - a\n"
	seen := make(map[schedcache.Fingerprint]string)
	add := func(s string) {
		f := schedcache.TextFingerprint(s)
		if prev, dup := seen[f]; dup {
			t.Fatalf("%q and %q collided on %x", prev, s, f)
		}
		seen[f] = s
	}
	for n := 0; n <= len(src); n++ {
		add(src[:n])
	}
	for i := range src {
		b := []byte(src)
		b[i] ^= 0x20
		add(string(b))
	}
}
