package pathlog

import "pathlog/internal/intake"

// This file re-exports the fleet intake service (internal/intake) at the
// facade: the always-on HTTP ingest that closes the paper's deployment loop
// — user sites POST stamped-only reference envelopes, the service validates
// each stamp against the plan store, dedupes by content signature, journals
// every event for crash recovery, and serves the current chain-head plan
// back so sites self-update. cmd/pathlogd is the daemon wrapper; tune
// -corpus -intake consumes the intake directory.

// IntakeConfig shapes an intake server: directory, plan store, queue
// bound, rate limits, body cap.
type IntakeConfig = intake.Config

// IntakeServer is a running intake service instance.
type IntakeServer = intake.Server

// IntakeMetrics is the counter snapshot the service's /metrics endpoint
// serves (accepted/stored/deduped/refused/throttled, queue depth, journal
// size, per-bucket tallies).
type IntakeMetrics = intake.Metrics

// IntakeBucketInfo describes the report bucket IngestIntake built a corpus
// from: the (program hash, plan fingerprint, generation) identity plus the
// stored/accepted counts.
type IntakeBucketInfo = intake.BucketInfo

// Intake constructors, re-exported from internal/intake.
var (
	// NewIntake opens an intake directory (replaying its journal) and
	// starts the ingest workers.
	NewIntake = intake.New
	// IngestIntake builds a corpus from an intake directory: the program's
	// newest-generation bucket, with each stored report's dedupe counter as
	// its member frequency and journal times driving recency.
	IngestIntake = intake.Ingest
)

// ProgramHash returns a program's deployment identity — the hash plan
// stores file lineage under and the intake service buckets reports by
// (Program.Hash, computed once per program).
func ProgramHash(prog *Program) string { return prog.Hash() }
