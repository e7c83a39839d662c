// Package store persists the deployment half of the paper's balance: the
// plans that were actually shipped to user sites, the lineage of every
// refinement chain, and the measured (overhead, debug-time) points that
// ground the cost model's estimates across sessions.
//
// A Store is a content-addressed directory:
//
//	<dir>/plans/<fingerprint>.json      one retained plan per deployed fingerprint
//	<dir>/lineage/<proghash>.json       generation/parent chains per program
//	<dir>/measured/<proghash>/<workload>.json
//	                                    measured frontier points per workload
//	<dir>/profiles/<fingerprint>.json   latest search profile per plan generation
//	<dir>/.lock                         cross-process advisory lock (lock.go)
//
// Plans are keyed by instrument.Plan.Fingerprint — the same stamp every
// recording carries — so a developer site holding the store can resolve
// the exact plan generation a bug report was taken under without the
// caller tracking plan files (Session Replay does this automatically when
// configured with WithPlanStore). Plan files are immutable once written:
// the fingerprint is the content hash, so a second PutPlan of the same
// plan is a no-op.
//
// The lineage index records, per program hash, every stored plan's
// (fingerprint, generation, parent, strategy). A cold session seeds its
// stale-generation bookkeeping from it, so a recording taken under a plan
// an earlier session already refined past is refused even though the
// refinement happened in another process.
//
// Measured points are the balance trajectory's ground truth: what a
// deployed plan actually logged per run and how long the developer-site
// search actually took. Frontier sweeps fold them back in (measurement
// wins over estimate for the same fingerprint), which is how cost-model
// estimates are corrected by history — and how estimated-vs-measured
// drift becomes renderable.
//
// Retained profiles are the per-generation evidence behind those points:
// the SearchProfile a generation's replay measured (which branches forked,
// which logged bits were consumed and whether they ever disagreed) is kept
// under the generation's fingerprint, so the promote and demote decisions
// can be read back from stored numbers. They never re-price the cost
// model. The newest profile per generation wins (atomic replace, not
// content-addressed), and a profile whose stamp disagrees with the
// fingerprint it is filed under is refused as damaged.
//
// Trust boundary: the store trusts its own directory no further than the
// fingerprints go. Every plan read back is re-hashed and verified
// (instrument.LoadPlan), a damaged file surfaces as an error wrapping
// instrument.ErrPlanCorrupt, and Scan skips damaged entries while
// reporting them by path. Index rewrites (lineage, measured) are
// serialized across processes through an flock-style lock file with
// stale-lock detection by pid and age, so concurrent record/tune runs
// cannot interleave writes; everything else is immutable or atomically
// replaced whole, so readers never need the lock.
package store
