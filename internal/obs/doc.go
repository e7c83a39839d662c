// Package obs is the observability substrate shared by every layer of the
// pipeline: a metrics registry (counters, gauges, fixed-bucket histograms
// with atomic hot paths and a stable snapshot API), structured trace spans
// with IDs that propagate over the HTTP hops between tune, pathlogd and
// shardworkerd, and a single JSONL event schema that the fleet's event
// journal and the harness artifacts consume instead of hand-rolled
// encoders.
//
// Snapshot returns a stable, sorted view of the registry taken in one pass,
// and WritePrometheus renders that view as Prometheus text, the one
// /metrics exposition (ServeMetrics). Nothing in the hot paths allocates or
// takes a lock — counters and histogram buckets are atomic adds, so the
// replay engine can observe every run without disturbing the bench gate.
package obs
