// Package opt implements the local optimizations the paper applies to
// randomly generated basic blocks (section 2.2): common subexpression
// elimination, constant folding, value propagation, and dead code
// elimination, plus a small set of algebraic simplifications. The paper
// notes these ensure "the resulting synthetic benchmark does not contain
// 'redundant' parallelism that might skew the results."
//
// Optimization preserves the original tuple numbering: surviving tuples
// keep their generation-time numbers, so listings show the gaps visible in
// the paper's Figure 1.
//
// The optimizer runs over dense tables sized from its input. Variable
// names are interned into ids once per call (ir.VarIDs), value numbering
// uses one open-addressing table of tuple positions, and liveness is a
// single backward sweep. It allocates a fixed number of arrays whatever
// the block size. The map-based optimizer it replaced is kept in
// oracle_test.go as the differential oracle.
package opt
