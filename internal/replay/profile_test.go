package replay

import (
	"context"
	"testing"

	"pathlog/internal/instrument"
	"pathlog/internal/lang"
	"pathlog/internal/world"
)

// sideBranchSrc has a two-branch instrumented chain guarding the crash and
// one extra symbolic branch (a[2] == 'Z') that plans below leave
// uninstrumented: every run that reaches the crash site forks there, so
// the search profile has both case-2b chain attribution (b0, b1) and
// case-1 fork attribution (b2).
const sideBranchSrc = `
int main() {
	char a[8];
	getarg(0, a, 8);
	if (a[0] == 'P') {
		if (a[1] == 'Q') {
			if (a[2] == 'Z') {
				print_str("z");
			}
			crash(1);
		}
	}
	return 0;
}
`

// chainFixture records sideBranchSrc under a plan instrumenting only the
// two chain branches, then points the recorded crash at an unreachable
// site. The resulting search is single-file: the all-seed run diverges at
// b0, follows the log through b1 and queues the forced fallback under its
// whole path; from then on one case-1 alternative per crash-site visit
// sits above the fallback. Each path is expanded once, so the search runs
// every path the log admits, empties its pending list well inside any
// budget, and its attribution is known branch by branch.
func chainFixture(t *testing.T) *fixture {
	t.Helper()
	prog := compile(t, sideBranchSrc)
	if len(prog.Branches) != 3 {
		t.Fatalf("fixture expects 3 branches, got %d", len(prog.Branches))
	}
	spec := &world.Spec{Args: []world.Stream{world.ArgSpec(0, "xxx", 4)}}
	plan := &instrument.Plan{
		Instrumented: map[lang.BranchID]bool{0: true, 1: true},
	}
	rec := record(t, prog, spec, plan, map[string][]byte{"arg0": []byte("PQx")})
	rec.Crash.Pos.Line = 9999 // unreachable: the search can never reproduce
	return &fixture{prog: prog, spec: spec, rec: rec}
}

// runProfiled runs the chain fixture under a MaxRuns budget and returns
// the result.
func runProfiled(t *testing.T, f *fixture, maxRuns int) *Result {
	t.Helper()
	eng := New(f.prog, f.spec, world.NewRegistry(), f.rec, Options{
		MaxRuns: maxRuns,
	})
	res := eng.Reproduce(context.Background())
	if res.Reproduced {
		t.Fatal("reproduced an unreachable crash")
	}
	if res.Profile == nil {
		t.Fatal("no search profile")
	}
	return res
}

func normalizedBranches(p *instrument.SearchProfile) map[lang.BranchID]instrument.BranchCost {
	out := make(map[lang.BranchID]instrument.BranchCost, len(p.Branches))
	for id, bc := range p.Branches {
		c := *bc
		c.SolverTime = 0
		out[id] = c
	}
	return out
}

// TestSearchProfileParityAcrossWorkers is the accounting check of the
// adaptive loop: the profile's totals and solver counters must agree with
// the search result, and the per-branch attribution must blame the runs on
// the branches that caused them.
func TestSearchProfileParityAcrossWorkers(t *testing.T) {
	const maxRuns = 24
	f := chainFixture(t)
	res := runProfiled(t, f, maxRuns)

	// Four paths in seven runs: the all-seed run following the log, b2's
	// two directions under the recorded chain, and the fallback's run
	// following the log from b1. Three runs land on a path already
	// expanded (b2's alternative of the "PQZ" run, the fallback's followed
	// path and its forced set) and queue nothing; a search that expanded
	// them again ping-pongs between b2's directions until the budget runs
	// out.
	if res.Runs != 7 || res.TimedOut || res.DuplicatePaths != 3 {
		t.Fatalf("runs %d (timed out %v, %d duplicate paths), want 7 runs, 3 of them duplicates, that empty the pending list",
			res.Runs, res.TimedOut, res.DuplicatePaths)
	}
	p := res.Profile
	if p.Runs != res.Runs || p.Aborts != res.Aborts || p.Reproduced != res.Reproduced {
		t.Errorf("profile totals %d/%d/%v disagree with the result's %d/%d/%v",
			p.Runs, p.Aborts, p.Reproduced, res.Runs, res.Aborts, res.Reproduced)
	}
	if p.Solver != res.SolverStats {
		t.Errorf("solver stats diverge:\nprofile %+v\nresult  %+v", p.Solver, res.SolverStats)
	}
	sb := normalizedBranches(p)
	// The attribution itself: the uninstrumented side branch (b2) must
	// carry case-1 forks and the aborted runs it seeded. Each run's first
	// divergent branch owns that run's whole-path set and its fallback:
	// b0 (the all-seed run) and b1 (the fallback's run) each charge two
	// solves and two aborted runs. b1's disagreements count both runs that
	// contradicted its bit, b0's only the all-seed run.
	if sb[2].Forks == 0 {
		t.Error("uninstrumented symbolic branch b2 shows no forks")
	}
	if sb[2].AbortedRuns == 0 {
		t.Error("branch b2 shows no aborted runs despite driving the search")
	}
	if sb[0].Forks != 0 || sb[1].Forks != 0 {
		t.Errorf("instrumented branches show case-1 forks: b0=%d b1=%d", sb[0].Forks, sb[1].Forks)
	}
	if sb[0].AbortedRuns != 2 || sb[0].SolverCalls != 2 || sb[0].Disagreements != 1 {
		t.Errorf("first divergence b0: %+v, want 2 aborted runs, 2 solver calls, 1 disagreement", sb[0])
	}
	if sb[1].AbortedRuns != 2 || sb[1].SolverCalls != 2 || sb[1].Disagreements != 2 {
		t.Errorf("fallback divergence b1: %+v, want 2 aborted runs, 2 solver calls, 2 disagreements", sb[1])
	}
	for id, bc := range sb {
		if bc.SolverCalls == 0 && bc.Forks == 0 && bc.Disagreements == 0 {
			t.Errorf("b%d: profiled but never charged", id)
		}
	}
}

// TestProfileOnReproducingSearch checks the profile of a successful search:
// the empty-plan reproduction of twoByteGuard must blame its runs on the
// uninstrumented symbolic branches and stamp the profile with the plan
// identity the refinement loop keys on.
func TestProfileOnReproducingSearch(t *testing.T) {
	prog := compile(t, twoByteGuard)
	spec := &world.Spec{Args: []world.Stream{world.ArgSpec(0, "ab", 4)}}
	plan := &instrument.Plan{
		Instrumented: map[lang.BranchID]bool{},
	}
	rec := record(t, prog, spec, plan, map[string][]byte{"arg0": []byte("PQ")})
	eng := New(prog, spec, world.NewRegistry(), rec, Options{MaxRuns: 500})
	res := eng.Reproduce(context.Background())
	if !res.Reproduced {
		t.Fatalf("not reproduced: %+v", res)
	}
	p := res.Profile
	if p == nil {
		t.Fatal("no profile on a reproducing search")
	}
	if !p.Reproduced || p.Runs != res.Runs || p.Aborts != res.Aborts {
		t.Errorf("profile totals disagree with result: %+v vs runs=%d aborts=%d",
			p, res.Runs, res.Aborts)
	}
	if want := plan.Fingerprint(); p.PlanFingerprint != want {
		t.Errorf("profile fingerprint %s, want %s", p.PlanFingerprint, want)
	}
	var forks int64
	for _, bc := range p.Branches {
		forks += bc.Forks
	}
	if forks == 0 {
		t.Error("empty-plan search profiled no forks")
	}
	top := p.TopBlowup(2, plan.Instrumented)
	if len(top) == 0 {
		t.Error("TopBlowup returned nothing for a multi-run search")
	}
}
