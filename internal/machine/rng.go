package machine

import (
	"math/rand"
	"sync"
)

// This file holds a bit-exact replica of math/rand's additive
// lagged-Fibonacci generator (rngSource), used by the simulator kernel to
// draw per-lane durations. The contract everywhere in this package is that
// a (Policy, Seed) pair denotes one concrete execution, with the stream
// defined by rand.New(rand.NewSource(seed)) — so the kernel must
// reproduce that stream bit for bit. The stdlib generator's problem for
// sweeps is Seed(): it walks a ~1900-step dependent Lehmer chain
// (x' = 48271·x mod 2³¹−1) to fill the 607-word state, which costs more
// than an entire simulated run. The replica removes the dependency: the
// k-th chain value is 48271^k·x₀ mod 2³¹−1, so with the powers
// 48271^k mod 2³¹−1 precomputed once per process, every state word is an
// independent multiply + Mersenne-prime fold — the seeding loop becomes
// wide instruction-level parallelism instead of a serial chain.
//
// The stdlib XORs each seeded word with an unexported table (rngCooked).
// Rather than copying that table out of the runtime's internals, it is
// recovered once at first use from the public API: the first 607 outputs
// of a freshly seeded source algebraically determine its entire original
// state (each output is the sum of two words, and the overwrite schedule
// makes the system triangular), and XORing the reconstructed state with
// the probe seed's chain values yields the table. The recovery is
// self-verifying — replica streams are compared against math/rand for a
// spread of seeds — and if verification ever fails (a hypothetical
// future change to the frozen math/rand algorithm), replicaReady reports
// false and RandomTimes runs fail with an error rather than draw a
// different stream.

const (
	rngLen   = 607 // length of the lagged-Fibonacci state
	rngTap   = 273 // lag distance
	rngMask  = 1<<63 - 1
	int31max = 1<<31 - 1 // 2³¹−1, the Mersenne prime of the seeding LCG
	seedMul  = 48271     // MINSTD multiplier of the seeding LCG

	// seedChainLen is how many Lehmer-chain values the stdlib Seed
	// consumes: 20 warm-up steps plus three per state word.
	seedChainLen = 20 + 3*rngLen
)

// mulmod31 returns a·b mod 2³¹−1 for a, b < 2³¹, using the Mersenne
// identity 2³¹ ≡ 1: fold the high bits onto the low bits twice, then a
// single conditional subtraction. No division anywhere.
func mulmod31(a, b uint64) uint64 {
	x := a * b // < 2⁶², no overflow
	x = (x >> 31) + (x & int31max)
	x = (x >> 31) + (x & int31max)
	if x >= int31max {
		x -= int31max
	}
	return x
}

// seedrand31 is the stdlib's seedrand (Schrage's method) on widened
// operands; used only during table recovery, where clarity beats speed.
func seedrand31(x int64) int64 {
	const q, r = int31max / seedMul, int31max % seedMul // 44488, 3399
	hi, lo := x/q, x%q
	x = seedMul*lo - r*hi
	if x < 0 {
		x += int31max
	}
	return x
}

// normSeed reduces an arbitrary seed to the Lehmer chain's starting
// value exactly as the stdlib does.
func normSeed(seed int64) uint64 {
	s := seed % int31max
	if s < 0 {
		s += int31max
	}
	if s == 0 {
		s = 89482311
	}
	return uint64(s)
}

// replica holds the process-wide recovered constants: the cooked table
// and the seed-chain power table pow[k] = 48271^(k+1) mod 2³¹−1.
var replica struct {
	once   sync.Once
	ok     bool
	cooked [rngLen]uint64
	// pow3[3i+j] = 48271^(21+3i+j) mod 2³¹−1: the three chain powers
	// that assemble state word i, stored contiguously per word.
	pow3 [3 * rngLen]uint64
}

// replicaReady reports whether the fast seeding path is available,
// performing the one-time table recovery and self-verification on first
// call.
func replicaReady() bool {
	replica.once.Do(recoverReplica)
	return replica.ok
}

func recoverReplica() {
	// Power table: chain value k (1-based) is 48271^k·x₀; state word i
	// uses chain values 21+3i, 22+3i, 23+3i.
	pw := uint64(1)
	for k := 1; k <= seedChainLen; k++ {
		pw = mulmod31(pw, seedMul)
		if k >= 21 {
			replica.pow3[k-21] = pw
		}
	}

	// Reconstruct the probe source's original state from its first 607
	// outputs. Writing o_k for output k and v[p] for original word p:
	// the generator reads words tap=606−k and feed (333−k, wrapping to
	// 940−k), overwrites the feed word with the sum, and the tap word of
	// step k≥273 is exactly the overwritten value o_{k−273}. That makes
	// the system triangular: steps 273..606 isolate one original word
	// each, and steps 0..272 then yield the rest by substitution.
	src, ok := rand.NewSource(1).(rand.Source64)
	if !ok {
		return
	}
	var out, v [rngLen]uint64
	for k := range out {
		out[k] = src.Uint64()
	}
	for k := 334; k <= 606; k++ {
		v[940-k] = out[k] - out[k-273]
	}
	for k := 273; k <= 333; k++ {
		v[333-k] = out[k] - out[k-273]
	}
	for k := 0; k <= 272; k++ {
		v[333-k] = out[k] - v[606-k]
	}

	// XOR out the probe seed's chain values to expose the cooked table.
	x := int64(normSeed(1))
	for k := 0; k < 20; k++ {
		x = seedrand31(x)
	}
	for i := 0; i < rngLen; i++ {
		x = seedrand31(x)
		u := uint64(x) << 40
		x = seedrand31(x)
		u ^= uint64(x) << 20
		x = seedrand31(x)
		u ^= uint64(x)
		replica.cooked[i] = v[i] ^ u
	}

	replica.ok = verifyReplica()
}

// verifyReplica cross-checks the recovered tables against math/rand for
// a spread of seeds: raw 64-bit outputs past a full state cycle (so the
// tap/feed walk is exercised through its wrap) and bounded draws through
// the same rejection path (*rand.Rand).Intn uses.
func verifyReplica() bool {
	state := make([]uint64, rngLen)
	for _, seed := range []int64{0, 1, 2, -1, -7, 89482311, int31max, 1<<62 + 12345} {
		var g laneRNG
		g.vec = state
		g.seed(seed)
		ref := rand.New(rand.NewSource(seed))
		for k := 0; k < rngLen+100; k++ {
			if g.int63() != ref.Int63() {
				return false
			}
		}
		for _, n := range []int{1, 2, 7, 8, 100, 1_000_003} {
			for k := 0; k < 32; k++ {
				if g.intn(n) != ref.Intn(n) {
					return false
				}
			}
		}
	}
	return true
}

// laneRNG is one lane's generator: a window of rngLen words plus the
// tap/feed cursors. The zero value is unusable; attach a vec window and
// seed it first.
type laneRNG struct {
	vec       []uint64 // len rngLen
	tap, feed int32
}

// seed fills the lane's state identically to rand.NewSource(seed) using
// the precomputed power table: every word is three independent
// multiply-folds, with no serial dependency between words. Requires
// replicaReady().
func (g *laneRNG) seed(seed int64) {
	x0 := normSeed(seed)
	vec := g.vec[:rngLen]
	for i := 0; i < rngLen; i++ {
		a := mulmod31(replica.pow3[3*i], x0)
		b := mulmod31(replica.pow3[3*i+1], x0)
		c := mulmod31(replica.pow3[3*i+2], x0)
		vec[i] = (a<<40 ^ b<<20 ^ c) ^ replica.cooked[i]
	}
	g.tap = 0
	g.feed = rngLen - rngTap
}

// next64 is rngSource.Uint64: the additive lagged-Fibonacci step.
func (g *laneRNG) next64() uint64 {
	g.tap--
	if g.tap < 0 {
		g.tap += rngLen
	}
	g.feed--
	if g.feed < 0 {
		g.feed += rngLen
	}
	x := g.vec[g.feed] + g.vec[g.tap]
	g.vec[g.feed] = x
	return x
}

func (g *laneRNG) int63() int64 { return int64(g.next64() & rngMask) }

func (g *laneRNG) int31() int32 { return int32(g.int63() >> 32) }

// int31n replicates (*rand.Rand).Int31n, including the power-of-two
// shortcut and the modulo-bias rejection loop, so draw counts (and hence
// stream positions) match the stdlib exactly.
func (g *laneRNG) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return g.int31() & (n - 1)
	}
	max := int32(1<<31 - 1 - (1<<31)%uint32(n))
	v := g.int31()
	for v > max {
		v = g.int31()
	}
	return v % n
}

// intn replicates (*rand.Rand).Intn for the bounds this package draws
// (node duration spans, always positive and well under 2³¹).
func (g *laneRNG) intn(n int) int {
	return int(g.int31n(int32(n)))
}
