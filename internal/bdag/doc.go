// Package bdag implements the barrier dag (B, <_b) of section 3.1 of the
// paper: a partially ordered set of barriers drawn as a directed acyclic
// graph whose edges carry the minimum and maximum execution times of the
// code regions between barriers. It is the timing engine behind the
// section 4.4.1 conservative and section 4.4.2 "optimal" insertion rules,
// which both ask path questions of this graph (is there a barrier ordering
// producer before consumer? how much time must/can elapse along it?).
//
// Edge weights follow the Figure 13 rule: because no processor proceeds
// past a barrier until all participants arrive, the minimum time of edge
// (u,v) is the maximum over participating processors of each processor's
// minimum region time, and likewise for the maximum.
//
// The graph supports two kinds of mutation. Construction-time mutations
// (AddBarrier, AddRegion) build it up region by region and invalidate the
// memoized queries wholesale — they are only used when deriving a dag from
// scratch. Maintenance mutations (InsertBarrier, AddBarrierAfter in
// incremental.go) patch the node/edge arrays in place for the one
// structural change a scheduler barrier insertion can make — splitting
// region edges through one new node w — and patch the memo with them:
// every cached reachability and longest-path row is raised to its exact
// new value by a relaxation over w's downstream cone, the topological
// order takes w by insertion when possible, and dominators are recomputed
// only on that cone; only path enumerations whose source reaches the split
// are dropped. The expensive queries — topological order, reachability
// (HasPath), longest min/max paths (LongestFrom), dominators, and the
// k-path enumeration behind the optimal inserter (PathsBetween) — are
// memoized on the Graph; CacheStats reports the hit rate and MaintStats
// the patch/invalidation balance. A row a query returns is shared and
// valid until the graph's next mutation.
//
// A Graph is a working structure with a single owner on a single
// goroutine: a query may fill the memo, so the graph carries no locks. A
// finished schedule does not keep its graph; it keeps a frozen copy of
// the few answers its readers need (core.BarrierView).
package bdag
