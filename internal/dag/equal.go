package dag

// Equal reports whether a and b are identical in index space: same node
// count, same per-node operation and timing labels, and the same edge set
// over node indices. Two Equal graphs are interchangeable inputs to the
// scheduler — every decision the section 4 pipeline makes reads only node
// indices, timings, and edge structure — so a schedule computed for one is
// byte-identical (timelines, assignment, barriers, metrics) to a schedule
// computed for the other under the same options. Variable names are
// deliberately excluded: they influence how a graph is built, never how it
// is scheduled.
//
// Equal is the exact verifier behind the content-addressed schedule cache
// (internal/schedcache): its fingerprint hashes exactly these fields in
// index order, so Equal graphs always share a key, and Equal confirms
// every match before a cached schedule is served.
func Equal(a, b *Graph) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.N != b.N || len(a.edges) != len(b.edges) {
		return false
	}
	for i := range a.Time {
		if a.Time[i] != b.Time[i] {
			return false
		}
	}
	for i := 0; i < a.N; i++ {
		if a.Block.Tuples[i].Op != b.Block.Tuples[i].Op {
			return false
		}
	}
	for i, e := range a.edges {
		if b.edges[i] != e {
			return false
		}
	}
	return true
}
