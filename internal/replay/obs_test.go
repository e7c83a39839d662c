package replay

import (
	"context"
	"testing"

	"pathlog/internal/instrument"
	"pathlog/internal/obs"
	"pathlog/internal/world"
)

// TestReproduceObservesHistograms runs a full search with a registry
// attached and checks the three per-run histograms account for every run
// the engine reports — the instrumentation the bench baseline's
// distribution data comes from.
func TestReproduceObservesHistograms(t *testing.T) {
	f := buildFixture(t, instrument.MethodDynamic)
	reg := obs.NewRegistry()
	eng := New(f.prog, f.spec, world.NewRegistry(), f.rec, Options{
		MaxRuns: 500, Obs: reg,
	})
	res := eng.Reproduce(context.Background())
	if !res.Reproduced {
		t.Fatalf("not reproduced: %+v", res)
	}
	s := reg.Snapshot()
	byName := map[string]obs.HistogramSnapshot{}
	for _, h := range s.Histograms {
		byName[h.Name] = h
	}
	for _, name := range []string{
		"pathlog_replay_run_ns",
		"pathlog_replay_solver_calls_per_run",
		"pathlog_replay_logged_bits_per_run",
	} {
		h, ok := byName[name]
		if !ok {
			t.Fatalf("histogram %s not registered (have %v)", name, byName)
		}
		if h.Count != int64(res.Runs) {
			t.Errorf("%s observed %d runs, engine reports %d", name, h.Count, res.Runs)
		}
	}
	if byName["pathlog_replay_run_ns"].Sum <= 0 {
		t.Error("run-ns histogram observed no time")
	}
}

// TestReproduceWithoutObsRegistersNothing pins the opt-in contract: no
// registry, no instruments, no overhead path.
func TestReproduceWithoutObsRegistersNothing(t *testing.T) {
	f := buildFixture(t, instrument.MethodDynamic)
	eng := New(f.prog, f.spec, world.NewRegistry(), f.rec, Options{MaxRuns: 200})
	if eng.runNS != nil || eng.solverCalls != nil || eng.loggedBits != nil {
		t.Fatal("histograms resolved without a registry")
	}
	if res := eng.Reproduce(context.Background()); !res.Reproduced {
		t.Fatalf("not reproduced: %+v", res)
	}
}
