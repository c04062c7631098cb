package machine

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"barriermimd/internal/core"
	"barriermimd/internal/ir"
)

// TestReplicaReady pins that the table recovery succeeds against this
// toolchain's math/rand. If a future toolchain ever changes the (frozen)
// generator, this test flags it loudly; RandomTimes runs then return an
// error instead of drawing a different stream.
func TestReplicaReady(t *testing.T) {
	if !replicaReady() {
		t.Fatal("laneRNG table recovery failed verification against math/rand")
	}
}

// TestLaneRNGMatchesMathRand compares the replica's raw and bounded
// streams against rand.New(rand.NewSource(seed)) well past a full state
// cycle, across seed edge cases (zero, negative, ≥2³¹−1 — all of which
// exercise the stdlib's seed normalization).
func TestLaneRNGMatchesMathRand(t *testing.T) {
	if !replicaReady() {
		t.Skip("replica unavailable on this toolchain")
	}
	state := make([]uint64, rngLen)
	for _, seed := range edgeSeeds {
		var g laneRNG
		g.vec = state
		g.seed(seed)
		ref := rand.New(rand.NewSource(seed))
		for k := 0; k < 2*rngLen; k++ {
			if got, want := g.int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d output %d: replica %d, math/rand %d", seed, k, got, want)
			}
		}
		// Bounded draws walk Int31n's rejection loop; n=1 and powers of
		// two take the mask shortcut, the rest the modulo path.
		for _, n := range []int{1, 2, 3, 7, 8, 41, 1024, 999983} {
			for k := 0; k < 64; k++ {
				if got, want := g.intn(n), ref.Intn(n); got != want {
					t.Fatalf("seed %d Intn(%d) draw %d: replica %d, math/rand %d", seed, n, k, got, want)
				}
			}
		}
	}
}

// TestLaneRNGReseed checks that re-seeding an already-used lane state
// reproduces the fresh stream (RunMany recycles lane windows across
// batches).
func TestLaneRNGReseed(t *testing.T) {
	if !replicaReady() {
		t.Skip("replica unavailable on this toolchain")
	}
	var g laneRNG
	g.vec = make([]uint64, rngLen)
	g.seed(5)
	for k := 0; k < 1000; k++ {
		g.next64()
	}
	g.seed(42)
	ref := rand.New(rand.NewSource(42))
	for k := 0; k < rngLen+10; k++ {
		if got, want := g.int63(), ref.Int63(); got != want {
			t.Fatalf("reseeded output %d: replica %d, math/rand %d", k, got, want)
		}
	}
}

// TestFailedReplicaIsAnError: with the replica marked unverified, a
// RandomTimes run must fail rather than draw some other stream, while
// the min/max policies, which draw nothing, still run.
func TestFailedReplicaIsAnError(t *testing.T) {
	if !replicaReady() {
		t.Skip("replica unavailable on this toolchain")
	}
	plan := compile(t, schedule(t, 30, 8, 4, 1, core.SBM), core.SBM)
	replica.ok = false
	defer func() { replica.ok = true }()
	if _, err := plan.Run(Config{Policy: RandomTimes, Seed: 1}); !errors.Is(err, errReplica) {
		t.Errorf("Plan.Run error = %v, want %v", err, errReplica)
	}
	if _, err := plan.RunMany(Config{Policy: RandomTimes}, batchSeeds(16)); !errors.Is(err, errReplica) {
		t.Errorf("RunMany error = %v, want %v", err, errReplica)
	}
	r, err := plan.Run(Config{Policy: MaxTimes})
	if err != nil {
		t.Fatalf("MaxTimes run without the replica: %v", err)
	}
	r.Release()
}

func BenchmarkLaneRNGSeed(b *testing.B) {
	if !replicaReady() {
		b.Skip("replica unavailable")
	}
	var g laneRNG
	g.vec = make([]uint64, rngLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.seed(int64(i))
	}
}

func BenchmarkMathRandSeed(b *testing.B) {
	r := rand.New(rand.NewSource(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Seed(int64(i))
	}
}

// countingSource wraps a math/rand source and counts the outputs drawn
// from it, so a test can tell whether Int31n entered its rejection loop.
type countingSource struct {
	rand.Source64
	n int
}

func (c *countingSource) Int63() int64   { c.n++; return c.Source64.Int63() }
func (c *countingSource) Uint64() uint64 { c.n++; return c.Source64.Uint64() }

// refLane draws lo[n] + Int31n(span[n]) in node order from math/rand and
// reports whether any draw entered the rejection loop.
func refLane(seed int64, lo, span []int32) (want []int32, rejected bool) {
	src := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
	ref := rand.New(src)
	want = make([]int32, len(span))
	for n, m := range span {
		want[n] = lo[n] + ref.Int31n(m)
		if src.n != n+1 {
			rejected = true
		}
	}
	return want, rejected
}

// edgeSeeds covers the stdlib's seed normalization: zero, negative,
// and values at and beyond 2³¹−1.
var edgeSeeds = []int64{0, 1, 3, 17, -1, -123456789, int31max - 1, int31max, int31max + 1, 1 << 40, -(1 << 40)}

// TestFreshOutputsMatchMathRand: output k of a fresh source, for every
// k below rngTap, is the sum of seed words rngLen−rngTap−1−k and
// rngLen−1−k.
func TestFreshOutputsMatchMathRand(t *testing.T) {
	if !replicaReady() {
		t.Skip("replica unavailable on this toolchain")
	}
	for _, seed := range edgeSeeds {
		src := rand.NewSource(seed).(rand.Source64)
		x0 := normSeed(seed)
		for k := 0; k < rngTap; k++ {
			want := src.Uint64()
			if got := freshOutput(k, x0); got != want {
				t.Fatalf("seed %d output %d: word sum %#x, math/rand %#x", seed, k, got, want)
			}
		}
	}
}

// spanOf maps a byte to a duration span from one of four classes: 1
// (fixed), a power of two up to 2³⁰ (Int31n's mask shortcut), a small
// span that is mostly not a power of two (the modulo path, e.g. Table
// 1's 9), or a span just above 2³⁰, which Int31n rejects about half the
// time.
func spanOf(b byte) int32 {
	switch b % 4 {
	case 0:
		return 1
	case 1:
		return 1 << (b / 4 % 31)
	case 2:
		return int32(b/4) + 3
	default:
		return 1<<30 + int32(b)*8191
	}
}

// spanPlan is a draw-only plan over the given spans (minimum duration
// n%5+1 for node n): enough of a Plan for chunkScratch.draw.
func spanPlan(spans []int32) *Plan {
	times := make([]ir.Timing, len(spans))
	for n, m := range spans {
		times[n] = ir.Timing{Min: n%5 + 1, Max: n%5 + int(m)}
	}
	p := &Plan{nnodes: len(spans)}
	p.splitDurations(times)
	return p
}

// checkDraws draws seeds through the kernel's draw and compares every
// lane with math/rand.
func checkDraws(t *testing.T, p *Plan, seeds []int64) {
	t.Helper()
	ck := p.getChunk(len(seeds))
	if err := ck.draw(RandomTimes, seeds); err != nil {
		t.Fatal(err)
	}
	L := len(seeds)
	for l, seed := range seeds {
		want, _ := refLane(seed, p.minDur, p.spanDur)
		for n, w := range want {
			if got := ck.dur[n*L+l]; got != w {
				t.Fatalf("seed %d node %d (span %d) of %d: drew %d, math/rand %d",
					seed, n, p.spanDur[n], p.nnodes, got, w)
			}
		}
	}
}

// TestFreshLaneMatchesMathRand runs freshLane over random span lists:
// a lane either matches (*rand.Rand).Int31n draw for draw, or hands
// itself back exactly when math/rand's stream entered the rejection
// loop. The kernel's draw then matches math/rand for every lane.
func TestFreshLaneMatchesMathRand(t *testing.T) {
	if !replicaReady() {
		t.Skip("replica unavailable on this toolchain")
	}
	rng := rand.New(rand.NewSource(7))
	var stayed, handedBack int
	for trial := 0; trial < 600; trial++ {
		spans := make([]int32, 1+rng.Intn(rngTap))
		for n := range spans {
			spans[n] = spanOf(byte(rng.Intn(256)))
		}
		if trial%3 == 0 {
			// Keep a third of the lists clear of rejection-prone spans.
			for n, m := range spans {
				if m > 1<<30 {
					spans[n] = 9
				}
			}
		}
		p := spanPlan(spans)
		seed := edgeSeeds[trial%len(edgeSeeds)] + int64(trial)
		want, rejected := refLane(seed, p.minDur, p.spanDur)
		col := slices.Clone(p.minDur)
		ok := freshLane(seed, p.vary, p.spanDur, col, 1)
		switch {
		case ok && rejected:
			t.Fatalf("trial %d seed %d: stayed direct but math/rand rejected a draw", trial, seed)
		case !ok && !rejected:
			t.Fatalf("trial %d seed %d: handed back but math/rand never rejected", trial, seed)
		case ok:
			stayed++
			if !slices.Equal(col, want) {
				t.Fatalf("trial %d seed %d: direct draws differ from math/rand", trial, seed)
			}
		default:
			handedBack++
		}
		checkDraws(t, p, []int64{seed, seed + 1, -seed})
	}
	t.Logf("stayed %d, handed back %d", stayed, handedBack)
	if stayed == 0 || handedBack == 0 {
		t.Errorf("stayed %d, handed back %d: want both paths exercised", stayed, handedBack)
	}
}

// FuzzDirectDraws checks the kernel's draw against math/rand for an
// arbitrary seed and span list (one byte per node, classes as spanOf).
// The seed corpus covers both paths, including replays of lists past
// rngTap and past a full state cycle.
func FuzzDirectDraws(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(-1), []byte{3, 7, 11, 15, 19, 23})
	f.Add(int64(int31max), bytes.Repeat([]byte{2, 0, 1}, 120))
	f.Add(int64(0), bytes.Repeat([]byte{9, 0}, 150))
	f.Add(int64(1<<40), bytes.Repeat([]byte{0, 1, 2, 3, 5, 6, 7}, 170))
	f.Fuzz(func(t *testing.T, seed int64, b []byte) {
		if !replicaReady() {
			t.Skip("replica unavailable on this toolchain")
		}
		if len(b) == 0 || len(b) > 2*rngLen {
			return
		}
		spans := make([]int32, len(b))
		for n, c := range b {
			spans[n] = spanOf(c)
		}
		checkDraws(t, spanPlan(spans), []int64{seed, seed ^ 1, -seed})
	})
}

// TestReplayLanesMatchOracle: Plan.Run and every RunMany lane match the
// legacy oracle where lanes replay the sequential replica — a plan with
// more than rngTap nodes, and a timing model whose spans just above 2³⁰
// make about half the draws reject — and SequentialLanes counts them.
func TestReplayLanesMatchOracle(t *testing.T) {
	if !replicaReady() {
		t.Skip("replica unavailable on this toolchain")
	}
	wide := ir.DefaultTimings()
	wide[ir.Mul] = ir.Timing{Min: 16, Max: 16 + 1<<30 + 4095}
	wide[ir.Load] = ir.Timing{Min: 1, Max: 1<<30 + 77}
	seeds := batchSeeds(12)
	for _, tc := range []struct {
		name string
		s    *core.Schedule
	}{
		{"large", schedule(t, 320, 14, 6, 1, core.DBM)},
		{"rejecting", timedSchedule(t, 40, 8, 4, 2, core.SBM, wide)},
	} {
		for _, kind := range []core.MachineKind{core.SBM, core.DBM} {
			plan := compile(t, tc.s, kind)
			if tc.name == "large" && plan.nnodes <= rngTap {
				t.Fatalf("large plan has %d nodes, want more than %d", plan.nnodes, rngTap)
			}
			cfg := Config{Policy: RandomTimes, BarrierCost: 1}
			before := Stats().SequentialLanes
			br, err := plan.RunMany(cfg, seeds)
			if err != nil {
				t.Fatal(err)
			}
			replayed := Stats().SequentialLanes - before
			for l, seed := range seeds {
				scfg := cfg
				scfg.Seed = seed
				want, err := RunAs(tc.s, kind, scfg)
				if err != nil {
					t.Fatal(err)
				}
				sameLane(t, tc.name+"/"+kind.String(), want, br, l)
				got, err := plan.Run(scfg)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, tc.name+"/"+kind.String(), want, got)
				got.Release()
			}
			br.Release()
			switch {
			case tc.name == "large" && replayed != uint64(len(seeds)):
				t.Errorf("%s/%v: %d sequential lanes, want %d", tc.name, kind, replayed, len(seeds))
			case replayed == 0:
				t.Errorf("%s/%v: no lane replayed", tc.name, kind)
			}
		}
	}
}

// TestSequentialLanesCount: a 60-statement sweep stays on the direct
// path, while every lane of a plan past rngTap nodes, Plan.Run included,
// counts one sequential lane.
func TestSequentialLanesCount(t *testing.T) {
	if !replicaReady() {
		t.Skip("replica unavailable on this toolchain")
	}
	small := compile(t, schedule(t, 60, 10, 8, 3, core.SBM), core.SBM)
	before := Stats().SequentialLanes
	br, err := small.RunMany(Config{Policy: RandomTimes}, batchSeeds(64))
	if err != nil {
		t.Fatal(err)
	}
	br.Release()
	for seed := int64(0); seed < 16; seed++ {
		r, err := small.Run(Config{Policy: RandomTimes, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}
	if d := Stats().SequentialLanes - before; d != 0 {
		t.Errorf("60-statement sweep: %d sequential lanes, want 0", d)
	}

	large := compile(t, schedule(t, 320, 14, 6, 1, core.DBM), core.DBM)
	before = Stats().SequentialLanes
	br, err = large.RunMany(Config{Policy: RandomTimes}, batchSeeds(24))
	if err != nil {
		t.Fatal(err)
	}
	br.Release()
	r, err := large.Run(Config{Policy: RandomTimes, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r.Release()
	if d := Stats().SequentialLanes - before; d != 25 {
		t.Errorf("%d-node plan: %d sequential lanes for 25 lanes, want 25", large.nnodes, d)
	}
	before = Stats().SequentialLanes
	br, err = large.RunMany(Config{Policy: MaxTimes}, batchSeeds(8))
	if err != nil {
		t.Fatal(err)
	}
	br.Release()
	if d := Stats().SequentialLanes - before; d != 0 {
		t.Errorf("MaxTimes draws nothing but counted %d sequential lanes", d)
	}
}

// BenchmarkDrawDurations times one lane's duration draw on the direct
// path (a 60-statement plan) and on the replay path (300 nodes, all
// variable, so past rngTap).
func BenchmarkDrawDurations(b *testing.B) {
	if !replicaReady() {
		b.Skip("replica unavailable")
	}
	spans := make([]int32, 300)
	for n := range spans {
		spans[n] = []int32{4, 9, 9}[n%3] // Table 1's Load, Mul and Div/Mod spans
	}
	for _, bc := range []struct {
		name string
		p    *Plan
	}{
		{"direct-60stmt", compile(b, schedule(b, 60, 10, 8, 1, core.SBM), core.SBM)},
		{"replay-300var", spanPlan(spans)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ck := bc.p.getChunk(1)
			seed := make([]int64, 1)
			for i := 0; i < b.N; i++ {
				seed[0] = int64(i)
				if err := ck.draw(RandomTimes, seed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
