// Package dag builds and analyzes the instruction DAG G(N, A) of section
// 4.1 of the paper: nodes are tuples of a basic block, edges are
// producer/consumer precedence constraints, and a dummy entry and exit node
// give the graph a single source and sink. The package computes the
// minimum/maximum node heights (h_min, h_max) that drive the section 4.2
// list-scheduling order and the minimum/maximum finish times shown in
// Figure 1.
//
// Build makes one pass over the block. Variables are interned into dense
// ids (ir.VarIDs), so memory ordering is tracked in arrays indexed by id.
// Every edge added while visiting tuple i ends at i, so a per-node stamp
// deduplicates edges and each successor list comes out ascending. The
// edges are recorded once, in insertion order, and counting-sorted into
// compressed sparse rows: successors by source, predecessors by
// destination in insertion order. Build allocates a fixed number of
// arrays whatever the block size. The map-based construction it replaced
// is kept in oracle_test.go as the differential oracle.
package dag
