// Package corpus turns the single-recording refinement loop into a
// corpus-driven one: a deployed system receives a stream of bug reports,
// and refining against only the latest crash lets one noisy report steer
// the whole instrumentation plan.
//
// A Corpus is built from a directory of recording envelopes (Ingest) or
// from in-memory recordings (Build). Reports that are indistinguishable to
// the developer site — same crash site, same plan stamp, same logged
// evidence — dedupe into one member whose frequency is the duplicate
// count; each member then gets a deterministic weight from its frequency
// and its recency (a half-life decay over file mtimes, measured against
// the newest member rather than the wall clock, so the same file set
// always weighs the same). The corpus identity is a hash over the member
// signatures, so two ingests of the same reports agree on what they are
// refining against.
//
// Replay fans the corpus out over N shards. Each shard replays its
// reports — in-process through the replay engine (InProcessRunner), or on
// shard worker daemons that take ShardRequest/ShardResponse over HTTP with
// the envelopes inline (fleet.RemoteRunner and cmd/shardworkerd) — and
// returns one plan-fingerprint-stamped SearchProfile per report. The central Merger is
// the only new trust boundary: every incoming profile's program hash, plan
// fingerprint and generation are verified before it is merged, and a
// foreign or stale profile is refused with both identities named. Merging
// scales each report's search cost by its weight
// (instrument.SearchProfile.MergeWeighted), so the aggregated attribution
// converges on the report population instead of the loudest crash.
package corpus
