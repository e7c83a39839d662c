package pathlog

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"pathlog/internal/apps"
	"pathlog/internal/obs"
	"pathlog/internal/static"
)

// TestAutoBalanceObserver pins the session-level observability contract:
// an attached observer receives every balance phase timing in its registry
// histograms, the replay engine's per-run distributions flow into the same
// registry, and each generation's measurement runs under a recorded
// balance.generation span.
func TestAutoBalanceObserver(t *testing.T) {
	s, err := apps.UServerScenario(3, 72)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	var traceBuf bytes.Buffer
	tracer := obs.NewTracer(&traceBuf, "test")
	sess := SessionOf(s,
		WithAnalysisSpec(apps.UServerAnalysisSpec()),
		WithDynamicBudget(3, 0),
		WithStaticOptions(static.Options{LibAsSymbolic: true}),
		WithSyscallLog(),
		WithStrategy(Dynamic()),
		WithReplayBudget(1500, 15*time.Second),
		WithObserver(&Observer{Reg: reg, Trace: tracer}),
	)

	tr, err := sess.AutoBalance(context.Background(), nil, BalanceOptions{
		TargetReplayRuns: 200,
		MaxGenerations:   4,
	})
	if err != nil {
		t.Fatalf("AutoBalance: %v", err)
	}
	if !tr.Converged {
		t.Fatalf("did not converge: %s", tr.Reason)
	}
	gens := len(tr.Points)

	// Every phase lands in the registry's phase histograms — record,
	// replay and merge once per generation, refine once per transition —
	// and the replay engine's per-run distributions land beside them.
	snap := reg.Snapshot()
	counts := map[string]int64{}
	for _, h := range snap.Histograms {
		counts[h.Name] = h.Count
	}
	for phase, want := range map[string]int64{"record": int64(gens), "replay": int64(gens), "merge": int64(gens), "refine": int64(gens - 1)} {
		name := "pathlog_balance_" + phase + "_ns"
		if counts[name] != want {
			t.Errorf("%s count = %d, want %d", name, counts[name], want)
		}
	}
	if counts["pathlog_replay_run_ns"] == 0 {
		t.Errorf("pathlog_replay_run_ns is empty — replay options did not inherit the observer's registry (histograms: %v)", counts)
	}

	// One balance.generation span per generation, each carrying its gen
	// attribute.
	var genSpans int
	for _, line := range strings.Split(strings.TrimSpace(traceBuf.String()), "\n") {
		var rec obs.SpanRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line unparsable: %v\n%s", err, line)
		}
		if rec.Name != "balance.generation" {
			continue
		}
		genSpans++
		if rec.Proc != "test" || rec.Attrs["gen"] == "" || rec.Trace == "" || rec.Span == "" {
			t.Errorf("malformed generation span: %+v", rec)
		}
	}
	if genSpans != gens {
		t.Errorf("trace has %d balance.generation spans, want %d", genSpans, gens)
	}
}
