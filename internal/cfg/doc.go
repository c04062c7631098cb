// Package cfg extends the paper's basic-block scheduler to programs with
// arbitrary control flow — the extension named as ongoing work in the
// paper's conclusion ("extension of the basic scheduling techniques to more
// complex code structures (including arbitrary control flow)" [OKee90]).
//
// The model is the natural conservative one for a barrier MIMD: the whole
// machine executes one basic block at a time. A program is lowered to a
// control-flow graph of basic blocks; each block is compiled and scheduled
// with the section 4 algorithms in isolation; and a full barrier across all
// processors separates consecutive blocks at run time. Because an SBM
// barrier releases all processors in exact synchrony, every block starts
// with zero timing fuzziness, exactly as the paper's intra-block analysis
// assumes — control transfers simply reset the static timing the same way
// an inserted barrier does.
//
// Blocks are mutually independent at compile time, so Program.Compile
// schedules them concurrently across Options.Parallelism workers; each
// block derives its own seed from its ID, making the compiled program
// identical for every worker count and with or without a schedule cache.
//
// Branch decisions are taken from the final value of a compiler-generated
// condition variable after the block's barrier, so all processors agree on
// the successor block.
package cfg
