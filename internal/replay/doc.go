// Package replay implements the paper's bug reproduction engine (§3): a
// symbolic execution engine guided by the partial branch log recorded at the
// user site.
//
// The engine performs a sequence of concolic runs. Each run executes the
// program with fully concrete inputs while the branch sink enforces the
// recorded bitvector: at every instrumented branch the next bit is consumed
// and compared with the direction the current input takes. The four cases of
// §3.1 are implemented literally:
//
//  1. symbolic, not instrumented — record the constraint, queue the negated
//     alternative on the pending list, continue;
//  2. symbolic, instrumented — on agreement record the constraint and
//     continue; on disagreement (2b) queue the constraint set that forces
//     the recorded direction as a fallback, record the recorded direction
//     and follow the log: the engine takes that direction
//     (vm.ErrFollowLog);
//  3. concrete, instrumented — on agreement continue; on disagreement abort
//     (an earlier uninstrumented symbolic branch went the wrong way), or
//     follow the log if the run already does;
//  4. concrete, not instrumented — continue.
//
// A run that follows the log queues no case-1 alternatives, never counts
// as a reproduction, and ends by queuing its whole path condition above
// the fallback, so the next run tries the recorded path in one solve.
// When a run ends without reproducing, the engine pops a pending
// constraint set (depth-first, §3.2), solves it for a new input, and
// starts over. Reproduction succeeds when a run crashes at the recorded
// bug site having matched the entire bitvector.
//
// The search is one serial loop and context-aware: the context and the run
// budget are checked before every solve and every run. Parallelism lives
// above it — concurrent searches of different recordings (or of one
// recording) each own their engine, solver, registry and per-run worlds.
//
// Recordings are durable bug reports. Save writes the full envelope
// (version 2): the plan the user site recorded under, the packed
// bitvector, optional syscall results and the crash site — never input
// bytes. SaveRef writes the stamped-only reference envelope (version 3)
// for deployments where the developer site retains every shipped plan in a
// plan store (internal/store): the report carries just the plan's
// fingerprint stamp, and replay resolves the exact retained plan
// generation from the store by that stamp. LoadRecording reads all three
// versions; LoadRecordingFor additionally validates the embedded plan
// against the program it will be searched on.
package replay
