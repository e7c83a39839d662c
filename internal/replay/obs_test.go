package replay

import (
	"context"
	"testing"

	"pathlog/internal/instrument"
	"pathlog/internal/lang"
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
	eng := New(f.prog, f.spec, world.NewRegistry(f.spec), f.rec, Options{
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
	// The all-seed run solves nothing: it lands in the bucket bounded at 0.
	if h := byName["pathlog_replay_solver_calls_per_run"]; h.Bounds[0] != 0 || h.Counts[0] == 0 {
		t.Errorf("solver calls: bounds %v counts %v, want the first run in a bucket bounded at 0",
			h.Bounds, h.Counts)
	}
}

// TestReproduceWithoutObsRegistersNothing pins the opt-in contract: no
// registry, no instruments, no overhead path.
func TestReproduceWithoutObsRegistersNothing(t *testing.T) {
	f := buildFixture(t, instrument.MethodDynamic)
	eng := New(f.prog, f.spec, world.NewRegistry(f.spec), f.rec, Options{MaxRuns: 200})
	if eng.runNS != nil || eng.solverCalls != nil || eng.loggedBits != nil ||
		eng.followRuns != nil || eng.unsat != nil || eng.gaveUp != nil {
		t.Fatal("instruments resolved without a registry")
	}
	if res := eng.Reproduce(context.Background()); !res.Reproduced {
		t.Fatalf("not reproduced: %+v", res)
	}
}

// followUnsatSrc tests one byte twice. Only the first test is logged, so a
// run from the neutral seed diverges there (case 2b), follows the log into
// the then-branch, and then collects the opposite outcome at the unlogged
// second test: its whole path condition is unsatisfiable, and only the
// forced fallback beneath it can reproduce.
const followUnsatSrc = `
int main() {
	char a[4];
	int x = 0;
	getarg(0, a, 4);
	if (a[0] == 'P') {
		x = 1;
	}
	if (a[0] == 'P') {
		crash(x);
	}
	return 0;
}
`

// TestReproduceCountsFollowRunsAndSolverOutcomes checks the counters that
// show in /metrics whether a followed run's whole-path set solved or its
// fallback ran: the seed run follows the log (one follow run), the
// whole-path set pops first and is proved unsatisfiable (one unsat), and
// the fallback reproduces on the second run.
func TestReproduceCountsFollowRunsAndSolverOutcomes(t *testing.T) {
	prog := compile(t, followUnsatSrc)
	spec := &world.Spec{Args: []world.Stream{world.ArgSpec(0, "x", 4)}}
	plan := &instrument.Plan{
		Instrumented: map[lang.BranchID]bool{0: true},
	}
	rec := record(t, prog, spec, plan, map[string][]byte{"arg0": []byte("P")})
	reg := obs.NewRegistry()
	res := New(prog, spec, world.NewRegistry(spec), rec, Options{MaxRuns: 50, Obs: reg}).Reproduce(context.Background())
	if !res.Reproduced || res.Runs != 2 {
		t.Fatalf("want a reproduction in 2 runs, got %+v", res)
	}
	if s := res.SolverStats; s.Calls != 2 || s.Unsat != 1 || s.Sat != 1 {
		t.Errorf("solver %+v, want the whole-path set unsat, then the fallback sat", s)
	}
	counters := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	for name, want := range map[string]int64{
		"pathlog_replay_follow_runs_total":   1,
		"pathlog_replay_solver_unsat_total":  1,
		"pathlog_replay_solver_gaveup_total": 0,
		// Two runs on two paths: nothing to deduplicate.
		"pathlog_replay_duplicate_paths_total": 0,
	} {
		if got, ok := counters[name]; !ok || got != want {
			t.Errorf("%s = %d (registered %v), want %d", name, got, ok, want)
		}
	}
}

// TestReproduceCountsDuplicatePaths checks the counter that shows a
// cycling search in a scrape: the chain fixture's search runs seven times
// over four paths, and each of the three runs down an already-expanded
// path is counted (and queues nothing).
func TestReproduceCountsDuplicatePaths(t *testing.T) {
	f := chainFixture(t)
	reg := obs.NewRegistry()
	res := New(f.prog, f.spec, world.NewRegistry(f.spec), f.rec, Options{MaxRuns: 24, Obs: reg}).Reproduce(context.Background())
	if res.Reproduced || res.TimedOut || res.Runs != 7 {
		t.Fatalf("want a search that empties its pending list in 7 runs, got %+v", res)
	}
	var got int64
	var ok bool
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "pathlog_replay_duplicate_paths_total" {
			got, ok = c.Value, true
		}
	}
	if !ok || got != 3 || int64(res.DuplicatePaths) != got {
		t.Errorf("pathlog_replay_duplicate_paths_total = %d (registered %v), result says %d, want 3",
			got, ok, res.DuplicatePaths)
	}
}
