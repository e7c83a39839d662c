// Package ir compiles linked MiniC programs to register code and executes it
// with a loop-based VM.
//
// The compiler translates the resolved AST of internal/lang into one
// register IR (RInstr): per-function instruction arrays of basic blocks of
// straight-line instructions ending in branch, jump, call or return
// terminators, with branch sites as explicit jump targets carrying their
// lang.BranchSite, a string constant pool, and the global table of the source
// program. Registers are allocated by operand depth as the compiler emits,
// and a peephole pass (fuse.go) folds operand loads and hot instruction
// groups into superinstructions. Compilation is memoised on the linked
// program (lang.Program.Compiled), so one compile amortizes over the hundreds
// to thousands of runs of a replay search.
//
// The VM (Engine, a vm.Factory) executes the register code in a dispatch loop
// with an explicit call stack, sharing the operator, builtin and crash
// semantics of internal/vm through vm.BinOp, vm.UnaryOp and vm.Host. It is
// engineered for bit-for-bit parity with the tree-walking interpreter: the
// same trace bits, syscall logs, crash sites, branch events, symbolic
// expressions, object-allocation order and step counts. Step parity works by
// construction: the compiler simulates the tree walker's pre-order step
// charging and attaches each run of charges to the first instruction that
// executes after them (RInstr.Steps), inserting explicit RNop carriers on
// edges — loop entries, branch joins — where no instruction would otherwise
// absorb them.
//
// The tree walker remains the differential-testing oracle; the parity suite
// in this package runs every example/app program under both engines.
package ir
