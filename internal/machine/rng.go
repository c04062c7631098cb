package machine

import (
	"math/rand"
	"sync"
)

// This file reproduces rand.New(rand.NewSource(seed)), math/rand's
// additive lagged-Fibonacci generator, for the simulator kernel's
// per-lane duration draws. The contract everywhere in this package is
// that a (Policy, Seed) pair denotes one concrete execution, with the
// stream defined by rand.New(rand.NewSource(seed)) — so every draw must
// match that stream bit for bit.
//
// Seeding is what costs. The stdlib's Seed walks a ~1900-step dependent
// Lehmer chain (x' = 48271·x mod 2³¹−1) to fill a 607-word state, yet a
// lane of a typical plan reads only a handful of those words. Two facts
// make each word, and each early output, cheap on its own:
//
//   - The k-th chain value is 48271^k·x₀ mod 2³¹−1, so with the powers
//     48271^k mod 2³¹−1 precomputed once per process, state word i is
//     three independent multiply + Mersenne-prime folds (seedWord).
//   - A fresh source starts with tap = 0 and feed = rngLen−rngTap. Step k
//     decrements both cursors and returns the sum of words
//     rngLen−rngTap−1−k and rngLen−1−k, writing it over the first. For
//     k < rngTap neither word has been written yet, so output k is the
//     sum of two seed words (freshOutput).
//
// The kernel therefore draws a lane directly (freshLane): node n's
// Int31n(span) consumes output n, so a variable-duration node costs two
// seed words and a fixed one (span 1) nothing. Int31n's rejection loop
// consumes extra outputs and shifts every later draw; a lane that would
// enter it, and every lane of a plan with more than rngTap nodes,
// replays through the sequential replica (laneRNG), which fills the
// whole state and steps it exactly as the stdlib does.
//
// The stdlib XORs each seeded word with an unexported table (rngCooked).
// Rather than copying that table out of the runtime's internals, it is
// recovered once at first use from the public API: the first 607 outputs
// of a freshly seeded source algebraically determine its entire original
// state (each output is the sum of two words, and the overwrite schedule
// makes the system triangular), and XORing the reconstructed state with
// the probe seed's chain values yields the table. The recovery is
// self-verifying — replica streams and fresh outputs are compared against
// math/rand for a spread of seeds — and if verification ever fails (a
// hypothetical future change to the frozen math/rand algorithm),
// replicaReady reports false and RandomTimes runs fail with an error
// rather than draw a different stream.

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

// replicaReady reports whether the replica's tables are available,
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
// tap/feed walk is exercised through its wrap), the first rngTap outputs
// as freshOutput computes them, and bounded draws through the same
// rejection path (*rand.Rand).Intn uses.
func verifyReplica() bool {
	state := make([]uint64, rngLen)
	for _, seed := range []int64{0, 1, 2, -1, -7, 89482311, int31max, 1<<62 + 12345} {
		var g laneRNG
		g.vec = state
		g.seed(seed)
		ref := rand.New(rand.NewSource(seed))
		x0 := normSeed(seed)
		for k := 0; k < rngLen+100; k++ {
			want := ref.Int63()
			if g.int63() != want {
				return false
			}
			if k < rngTap && int64(freshOutput(k, x0)&rngMask) != want {
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

// seedWords sets dst[j] to state word lo+j of rand.NewSource(seed), where
// x0 is normSeed(seed): three independent multiply-folds with the power
// table, XORed with the cooked table, and no serial dependency between
// words. Requires replicaReady().
func seedWords(dst []uint64, lo int, x0 uint64) {
	for j := range dst {
		i := lo + j
		a := mulmod31(replica.pow3[3*i], x0)
		b := mulmod31(replica.pow3[3*i+1], x0)
		c := mulmod31(replica.pow3[3*i+2], x0)
		dst[j] = (a<<40 ^ b<<20 ^ c) ^ replica.cooked[i]
	}
}

// seedWord returns state word i of rand.NewSource(seed) alone. It wraps
// seedWords rather than the other way round because the inliner rejects
// the word's formula, and a call per word would slow full seeding down.
func seedWord(i int, x0 uint64) uint64 {
	var w [1]uint64
	seedWords(w[:], i, x0)
	return w[0]
}

// freshOutput returns output k (k < rngTap) of rand.NewSource(seed), for
// x0 = normSeed(seed), without stepping a generator: step k adds words
// rngLen−rngTap−1−k (feed) and rngLen−1−k (tap), and the k earlier steps
// wrote only feed words above rngLen−rngTap−1−k. Requires replicaReady().
func freshOutput(k int, x0 uint64) uint64 {
	return seedWord(rngLen-rngTap-1-k, x0) + seedWord(rngLen-1-k, x0)
}

// freshLane adds to col[n*stride], for each node n in vary (ascending,
// all below rngTap), the value Int31n(span[n]) that
// rand.New(rand.NewSource(seed)) returns on its n-th call when every
// node draws once in node order. Without rejections call n consumes
// exactly output n, and a node outside vary (span 1) returns 0 whatever
// it reads. freshLane reports false, leaving the lane partly updated,
// when a draw would enter Int31n's rejection loop, whose extra outputs
// shift every later draw: the caller must then replay the lane
// (replayLane). Requires replicaReady().
func freshLane(seed int64, vary, span, col []int32, stride int) bool {
	x0 := normSeed(seed)
	for _, n := range vary {
		m := span[n]
		v := int32((freshOutput(int(n), x0) & rngMask) >> 32)
		if m&(m-1) == 0 {
			v &= m - 1
		} else {
			// Int31n accepts v below the largest multiple of m that
			// fits in 2³¹, that is when v's multiple-of-m block
			// [v−v%m, v−v%m+m) ends at or below 2³¹.
			r := v % m
			if uint32(v-r)+uint32(m) > 1<<31 {
				return false
			}
			v = r
		}
		col[int(n)*stride] += v
	}
	return true
}

// seed fills the lane's state identically to rand.NewSource(seed).
// Requires replicaReady().
func (g *laneRNG) seed(seed int64) {
	seedWords(g.vec[:rngLen], 0, normSeed(seed))
	g.tap = 0
	g.feed = rngLen - rngTap
}

// replayLane writes lo[n] + Int31n(span[n]) into col[n*stride] for every
// node n, drawn in node order from rand.New(rand.NewSource(seed)) by
// seeding the whole state and stepping it. It allocates the state window
// if g has none. Requires replicaReady().
func (g *laneRNG) replayLane(seed int64, lo, span, col []int32, stride int) {
	if g.vec == nil {
		g.vec = make([]uint64, rngLen)
	}
	g.seed(seed)
	for n, m := range span {
		col[n*stride] = lo[n] + g.int31n(m)
	}
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
