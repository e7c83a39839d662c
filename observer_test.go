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

// TestRecordObserver pins the record path's observability: with an
// observer, every RecordWith lands the bits its run logged in the
// pathlog_record_logged_bits histogram and its buffer flushes in the
// pathlog_record_flushes_total counter, and the registry's exposition
// lints as Prometheus text.
func TestRecordObserver(t *testing.T) {
	// The loop branch runs 40001 times, more bits than one 4KB buffer holds.
	prog, err := Compile(Unit{Name: "loop.mc", Source: `
int main() {
	int i;
	int s = 0;
	for (i = 0; i < 40000; i++) {
		s = s + i;
	}
	return 0;
}
`})
	if err != nil {
		t.Fatal(err)
	}
	plan := &Plan{Instrumented: map[BranchID]bool{}}
	for _, b := range prog.Branches {
		plan.Instrumented[b.ID] = true
	}
	reg := obs.NewRegistry()
	sess := NewSession(prog, &Spec{}, WithObserver(&Observer{Reg: reg}))
	var bits, flushes int64
	for range 2 {
		_, stats, err := sess.RecordWith(context.Background(), plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		bits += stats.TraceBits
		flushes += int64(stats.Flushes)
	}
	if flushes == 0 {
		t.Fatalf("runs logging %d bits flushed no buffer", bits)
	}

	var text bytes.Buffer
	if err := obs.WritePrometheus(&text, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParsePrometheus(&text)
	if err != nil {
		t.Fatalf("exposition does not lint: %v", err)
	}
	h := fams["pathlog_record_logged_bits"]
	if h.Type != "histogram" || h.Samples["pathlog_record_logged_bits_count"] != 2 ||
		h.Samples["pathlog_record_logged_bits_sum"] != float64(bits) {
		t.Errorf("pathlog_record_logged_bits = %+v, want 2 runs summing to %d bits", h, bits)
	}
	c := fams["pathlog_record_flushes_total"]
	if c.Type != "counter" || c.Samples["pathlog_record_flushes_total"] != float64(flushes) {
		t.Errorf("pathlog_record_flushes_total = %+v, want %d", c, flushes)
	}
}
