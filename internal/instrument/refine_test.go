package instrument

import (
	"context"
	"strings"
	"testing"
	"time"

	"pathlog/internal/lang"
)

// fakeProfile builds a search profile measured under plan: b1 blamed
// hardest (aborted runs), b4 second (forks only), b3 charged solver work
// only.
func fakeProfile(plan *Plan) *SearchProfile {
	return &SearchProfile{
		PlanFingerprint: plan.Fingerprint(),
		Runs:            20,
		Aborts:          19,
		Reproduced:      true,
		Branches: map[lang.BranchID]*BranchCost{
			1: {Forks: 30, AbortedRuns: 12, SolverCalls: 30, SolverTime: time.Millisecond},
			4: {Forks: 10, SolverCalls: 10},
			3: {SolverCalls: 2},
		},
	}
}

func refinedPlan(t *testing.T, pc *PlanContext, base *Plan, profile *SearchProfile, k int) *Plan {
	t.Helper()
	strat, err := Refine(base, profile, k)
	if err != nil {
		t.Fatal(err)
	}
	p, err := strat.Plan(context.Background(), pc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRefinePromotesTopBlowup(t *testing.T) {
	pc := NewPlanContext(fakeProgram(t), fakeInputs(), true)
	base, err := Dynamic().Plan(context.Background(), pc)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Instrumented[0] || base.Instrumented[1] {
		t.Fatalf("fixture drifted: dynamic plan %v", base.IDs())
	}
	profile := fakeProfile(base)
	p := refinedPlan(t, pc, base, profile, 1)

	if !p.Instrumented[1] {
		t.Error("top blowup branch b1 not promoted")
	}
	if p.Instrumented[4] {
		t.Error("k=1 promoted more than one branch")
	}
	if !p.Instrumented[0] {
		t.Error("base branch b0 dropped by refinement")
	}
	if p.Generation != 1 || p.Parent != base.Fingerprint() {
		t.Errorf("lineage: generation %d parent %s", p.Generation, p.Parent)
	}
	if p.LogSyscalls != base.LogSyscalls {
		t.Error("refinement changed the syscall-logging flag")
	}
	if !strings.Contains(p.Strategy, "refine(") || !strings.Contains(p.Strategy, "+b1") {
		t.Errorf("strategy name %q does not describe the promotion", p.Strategy)
	}

	// k wider than the blamable set promotes everything promotable and no
	// more: b3 has solver charges only, still promotable; instrumented
	// branches never are.
	wide := refinedPlan(t, pc, base, profile, 10)
	for _, id := range []lang.BranchID{1, 3, 4} {
		if !wide.Instrumented[id] {
			t.Errorf("k=10: b%d not promoted", id)
		}
	}
	if wide.NumInstrumented() != base.NumInstrumented()+3 {
		t.Errorf("k=10 instrumented %d, want base+3", wide.NumInstrumented())
	}
}

func TestRefineRefusesForeignProfile(t *testing.T) {
	pc := NewPlanContext(fakeProgram(t), fakeInputs(), true)
	base, err := Dynamic().Plan(context.Background(), pc)
	if err != nil {
		t.Fatal(err)
	}
	all, err := All().Plan(context.Background(), pc)
	if err != nil {
		t.Fatal(err)
	}
	profile := fakeProfile(all) // measured under a different plan
	if _, err := Refine(base, profile, 2); err == nil ||
		!strings.Contains(err.Error(), "measured under") {
		t.Errorf("foreign profile accepted: %v", err)
	}
	if _, err := Refine(nil, fakeProfile(base), 1); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := Refine(base, nil, 1); err == nil {
		t.Error("nil profile accepted")
	}
}

func TestRefineChainNamesAndLineage(t *testing.T) {
	pc := NewPlanContext(fakeProgram(t), fakeInputs(), true)
	base, err := Dynamic().Plan(context.Background(), pc)
	if err != nil {
		t.Fatal(err)
	}
	gen1 := refinedPlan(t, pc, base, fakeProfile(base), 1)
	prof1 := fakeProfile(gen1)
	delete(prof1.Branches, 1) // b1 is instrumented now; blame the rest
	gen2 := refinedPlan(t, pc, gen1, prof1, 1)

	if gen2.Generation != 2 || gen2.Parent != gen1.Fingerprint() {
		t.Errorf("gen2 lineage: generation %d parent %s", gen2.Generation, gen2.Parent)
	}
	if strings.Count(gen2.Strategy, "refine(") != 1 {
		t.Errorf("nested refinement name not flattened: %q", gen2.Strategy)
	}
	if !strings.Contains(gen2.Strategy, "@") {
		t.Errorf("deep refinement name %q does not reference the parent fingerprint", gen2.Strategy)
	}
	// Lineage is provenance, not identity: a refined plan's fingerprint
	// depends only on program, branch set and syscall flag.
	clone := *gen2
	clone.Generation = 0
	clone.Parent = ""
	if clone.Fingerprint() != gen2.Fingerprint() {
		t.Error("lineage leaked into the fingerprint")
	}
}

func TestRefineFixedPointOnSilentProfile(t *testing.T) {
	pc := NewPlanContext(fakeProgram(t), fakeInputs(), true)
	base, err := Dynamic().Plan(context.Background(), pc)
	if err != nil {
		t.Fatal(err)
	}
	empty := &SearchProfile{PlanFingerprint: base.Fingerprint(), Runs: 3, Branches: nil}
	p := refinedPlan(t, pc, base, empty, 4)
	if p.Fingerprint() != base.Fingerprint() {
		t.Errorf("silent profile changed the branch set: %v vs %v", p.IDs(), base.IDs())
	}
	if p.Generation != 1 {
		t.Errorf("fixed-point plan generation %d, want 1 (callers compare fingerprints)", p.Generation)
	}
}

func TestCalibrateCostsUsesObservedRates(t *testing.T) {
	prog := fakeProgram(t)
	m := NewCostModel(prog, fakeInputs().Dynamic)
	base := planOf(t, Dynamic(), NewPlanContext(prog, fakeInputs(), true))
	profile := fakeProfile(base)

	cal := m.CalibrateCosts(profile)
	// b1 forked 30 times over 20 runs: observed symRate 1.5 replaces the
	// prior, and the branch now counts as visited.
	if got, want := cal.branchReplayCost(1), 1.5; got != want {
		t.Errorf("calibrated replay cost of b1: %g, want %g", got, want)
	}
	// A branch the profile never charged keeps its analysis-time pricing.
	if got, want := cal.branchReplayCost(2), m.branchReplayCost(2); got != want {
		t.Errorf("uncharged branch repriced: %g, want %g", got, want)
	}
	// A zero-fork entry (an instrumented case-2b origin: solver charges,
	// no speculation) must NOT calibrate — the search never observed its
	// fork rate, and repricing it as symRate 0 would mark a
	// proven-symbolic branch concrete.
	if got, want := cal.branchReplayCost(3), m.branchReplayCost(3); got != want {
		t.Errorf("zero-fork entry repriced: %g, want %g", got, want)
	}
	if cal.visited[3] {
		t.Error("zero-fork entry marked visited by calibration")
	}
	// Observed forks floor the exec rate: instrumenting b1 now costs at
	// least its observed per-run executions.
	if got := cal.branchOverhead(1); got < 1.5 {
		t.Errorf("calibrated overhead of b1: %g, want >= 1.5", got)
	}
	// The original model is untouched (calibration returns a copy).
	if m.visited[1] {
		t.Error("calibration mutated the base model")
	}
	// Degenerate profiles are identity.
	if m.CalibrateCosts(nil) != m {
		t.Error("nil profile did not return the base model")
	}
	if m.CalibrateCosts(&SearchProfile{}) != m {
		t.Error("empty profile did not return the base model")
	}
}

func TestTopBlowupDeterministicOrder(t *testing.T) {
	p := &SearchProfile{
		Runs: 10,
		Branches: map[lang.BranchID]*BranchCost{
			7: {AbortedRuns: 5, Forks: 1},
			2: {AbortedRuns: 5, Forks: 9},
			9: {AbortedRuns: 5, Forks: 9}, // ties with b2 on runs+forks: lower ID wins
			1: {Forks: 100},               // many forks, no runs: ranks below any aborted-run branch
		},
	}
	got := p.TopBlowup(4, nil)
	want := []lang.BranchID{2, 9, 7, 1}
	if len(got) != len(want) {
		t.Fatalf("TopBlowup: %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopBlowup order: %v, want %v", got, want)
		}
	}
	if top := p.TopBlowup(2, map[lang.BranchID]bool{2: true}); top[0] != 9 {
		t.Errorf("instrumented branch not excluded: %v", top)
	}
}

func TestSearchProfileMergeAndRoundTrip(t *testing.T) {
	prog := fakeProgram(t)
	base := planOf(t, Dynamic(), NewPlanContext(prog, fakeInputs(), true))
	a := fakeProfile(base)
	b := fakeProfile(base)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Runs != 40 || a.Branches[1].Forks != 60 {
		t.Errorf("merge totals: runs=%d b1.forks=%d", a.Runs, a.Branches[1].Forks)
	}
	other := fakeProfile(planOf(t, All(), NewPlanContext(prog, fakeInputs(), true)))
	if err := a.Merge(other); err == nil {
		t.Error("merged profiles from different plans")
	}
	// A zero-value accumulator adopts the first source's identity, so a
	// later foreign profile is still refused.
	acc := &SearchProfile{}
	if err := acc.Merge(b); err != nil {
		t.Fatal(err)
	}
	if acc.PlanFingerprint != b.PlanFingerprint {
		t.Errorf("accumulator did not adopt identity: %q", acc.PlanFingerprint)
	}
	if err := acc.Merge(other); err == nil {
		t.Error("accumulator merged a foreign profile after adopting an identity")
	}

	path := t.TempDir() + "/profile.json"
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSearchProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Runs != a.Runs || loaded.PlanFingerprint != a.PlanFingerprint {
		t.Errorf("round trip drifted: %+v vs %+v", loaded, a)
	}
	if loaded.Branches[1].AbortedRuns != a.Branches[1].AbortedRuns ||
		loaded.Branches[1].SolverTime != a.Branches[1].SolverTime {
		t.Errorf("branch cost drifted: %+v vs %+v", loaded.Branches[1], a.Branches[1])
	}
}
