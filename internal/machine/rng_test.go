package machine

import (
	"errors"
	"math/rand"
	"testing"

	"barriermimd/internal/core"
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
	for _, seed := range []int64{0, 1, 3, 17, -1, -123456789, int31max - 1, int31max, int31max + 1, 1 << 40, -(1 << 40)} {
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
