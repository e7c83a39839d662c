// Package instrument decides which branch locations to log and implements
// the branch logger that an instrumented build runs with.
//
// The decision is a composable Strategy algebra: built-ins (Dynamic,
// Static, StaticResidue, All, None) compose through combinators (Union,
// Budgeted). The four methods of §2.3 are names for
// fixed compositions, which StrategyForMethod returns:
//
//	dynamic         Dynamic(): branches the concolic analysis labeled symbolic
//	static          Static(): branches the static analysis labeled symbolic
//	dynamic+static  Union(Dynamic(), StaticResidue()): dynamic's labels
//	                where visited, static's elsewhere
//	all             All(): every branch location
//
// The developer retains the plan (the instrumented-branch set); the replay
// engine needs it to interpret the bitvector (§3.1).
//
// A CostModel built once, from concolic per-branch hit counts, prices every
// plan's record side — expected logged bits per user-site run — and ranks
// branches for Budgeted by symbolic executions per logged bit. Debug time
// is never modelled: a plan's replay runs are what a developer-site search
// measures. What a search observes (SearchProfile) decides which branches
// Refine promotes and demotes for the next plan generation.
//
// Plans are durable deployment artifacts. Fingerprint gives a plan a
// content identity (program hash + branch set + syscall flag) that records
// and recordings are stamped with. A plan is not modified after its first
// use: it compiles once into its fingerprint and the dense branch table
// (Table) the Logger and the replay engine test per branch execution.
// Save and LoadPlan round-trip the full envelope through JSON, verifying
// the fingerprint on load; lineage
// (Plan.Generation, Plan.Parent) travels with the envelope so refinement
// chains stay auditable across sites. A damaged plan file fails LoadPlan
// with an error wrapping ErrPlanCorrupt, which the plan store
// (internal/store) uses to skip and report damaged entries during scans.
package instrument
