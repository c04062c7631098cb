package schedcache

import "barriermimd/internal/dag"

// Fingerprint is a 128-bit content address for an instruction DAG. It
// hashes exactly what dag.Equal compares, in index order: the node count,
// every node's minimum and maximum execution time, every real node's
// operation, and the edge list in slice order. So:
//
//   - two graphs that are dag.Equal always collide;
//   - any other pair collides only with 2^-128 hash probability.
//
// A relabeled copy of a graph gets a different fingerprint, which is what
// the cache wants: the scheduler's random tie-breaks read node indices, so
// a relabeled graph can legally schedule differently. The cache still
// confirms every match with dag.Equal before serving it.
type Fingerprint struct{ Hi, Lo uint64 }

// FingerprintOf returns g's content fingerprint: one pass over the graph
// into two independent splitmix lanes, with no allocation.
func FingerprintOf(g *dag.Graph) Fingerprint {
	n := uint64(g.N)
	h1 := mix64(n)
	h2 := mix64(n ^ 0xA5A5A5A5A5A5A5A5)
	for i, t := range g.Time {
		v := combine(mix64(uint64(int64(t.Min))), uint64(int64(t.Max)))
		if i < g.N {
			v = combine(v, uint64(g.Block.Tuples[i].Op))
		}
		h1 = combine(h1, v)
		h2 = combine(h2, v^0xC3C3C3C3C3C3C3C3)
	}
	edges := g.Edges()
	h1 = combine(h1, uint64(len(edges)))
	h2 = combine(h2, uint64(len(edges)))
	for _, e := range edges {
		v := uint64(e.From)<<32 | uint64(uint32(e.To))
		h1 = combine(h1, v)
		h2 = combine(h2, mix64(v))
	}
	return Fingerprint{Hi: h1, Lo: h2}
}

// TextFingerprint returns the 128-bit hash a source key carries in FP:
// one pass over the text, eight bytes at a time in little-endian order,
// into the same two splitmix lanes as FingerprintOf. It depends on the
// bytes alone, so equal text gives an equal fingerprint in every process.
// A source key confirms a match by comparing the text itself; the
// fingerprint only picks the shard and labels trace events.
func TextFingerprint(src string) Fingerprint {
	n := uint64(len(src))
	h1 := mix64(n ^ 0x5A5A5A5A5A5A5A5A)
	h2 := mix64(n ^ 0x3C3C3C3C3C3C3C3C)
	for ; len(src) >= 8; src = src[8:] {
		v := uint64(src[0]) | uint64(src[1])<<8 | uint64(src[2])<<16 | uint64(src[3])<<24 |
			uint64(src[4])<<32 | uint64(src[5])<<40 | uint64(src[6])<<48 | uint64(src[7])<<56
		h1 = combine(h1, v)
		h2 = combine(h2, v^0xC3C3C3C3C3C3C3C3)
	}
	var v uint64
	for i := 0; i < len(src); i++ {
		v |= uint64(src[i]) << (8 * i)
	}
	return Fingerprint{Hi: combine(h1, v), Lo: combine(h2, v^0xC3C3C3C3C3C3C3C3)}
}

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler with good
// avalanche behavior, used both to combine label material and to finalize
// hashes.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// combine folds v into h order-dependently.
func combine(h, v uint64) uint64 {
	return mix64(h ^ (v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)))
}
