package bdag

// bitset is a word-packed node set: bit i of word i/64 marks node i. The
// memoized reachability rows use it instead of []bool so a row costs one
// word per 64 barriers and set/test/union are single instructions per
// word. Rows are sized for the graph when computed; a patch that adds a
// later node to a row grows it first (see patchMemo), and test
// bounds-checks, so a row that never gains a later node stays short and
// answers false for it.
type bitset []uint64

// newBitset returns an empty set able to hold nodes [0, n).
func newBitset(n int) bitset { return make(bitset, (n+63)>>6) }

// set adds node i; i must be within the set's capacity.
func (b bitset) set(i int) { b[i>>6] |= 1 << uint(i&63) }

// test reports whether node i is in the set. Indices beyond the set's
// sizing answer false, so rows computed before the graph grew stay
// queryable.
func (b bitset) test(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<uint(i&63)) != 0
}

// grow returns b able to hold nodes [0, n), keeping its members. Words
// past the old length are cleared: a recycled backing array can carry
// stale bits beyond len.
func (b bitset) grow(n int) bitset {
	words := (n + 63) >> 6
	if words <= len(b) {
		return b
	}
	if words <= cap(b) {
		old := len(b)
		b = b[:words]
		clear(b[old:])
		return b
	}
	nb := make(bitset, words, words+rowSlack/64+1)
	copy(nb, b)
	return nb
}

// or unions src into b. src may be shorter than b (a row computed on a
// smaller graph); the missing high words are empty.
func (b bitset) or(src bitset) {
	for w, x := range src {
		b[w] |= x
	}
}

// testAny reports whether any of nodes is in the set.
func (b bitset) testAny(nodes []int) bool {
	for _, x := range nodes {
		if b.test(x) {
			return true
		}
	}
	return false
}
