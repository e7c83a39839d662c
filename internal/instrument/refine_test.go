package instrument

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"pathlog/internal/concolic"
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

// refinedPlan builds the refinement of base that promotes and demotes
// the given sets.
func refinedPlan(t *testing.T, pc *PlanContext, base *Plan, profile *SearchProfile, promote, demote []lang.BranchID) *Plan {
	t.Helper()
	strat, err := Refine(base, profile, promote, demote)
	if err != nil {
		t.Fatal(err)
	}
	p, err := strat.Plan(context.Background(), pc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// promotedPlan builds the promote-only step at width k, the step the
// balance loop takes while its target misses.
func promotedPlan(t *testing.T, pc *PlanContext, base *Plan, profile *SearchProfile, k int) *Plan {
	t.Helper()
	return refinedPlan(t, pc, base, profile, profile.TopBlowup(k, base.Instrumented), nil)
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
	p := promotedPlan(t, pc, base, profile, 1)

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
	wide := promotedPlan(t, pc, base, profile, 10)
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
	if _, err := Refine(base, profile, profile.TopBlowup(2, base.Instrumented), nil); err == nil ||
		!strings.Contains(err.Error(), "measured under") {
		t.Errorf("foreign profile accepted: %v", err)
	}
	if _, err := Refine(nil, fakeProfile(base), []lang.BranchID{1}, nil); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := Refine(base, nil, []lang.BranchID{1}, nil); err == nil {
		t.Error("nil profile accepted")
	}
}

func TestRefineChainNamesAndLineage(t *testing.T) {
	pc := NewPlanContext(fakeProgram(t), fakeInputs(), true)
	base, err := Dynamic().Plan(context.Background(), pc)
	if err != nil {
		t.Fatal(err)
	}
	gen1 := promotedPlan(t, pc, base, fakeProfile(base), 1)
	prof1 := fakeProfile(gen1)
	delete(prof1.Branches, 1) // b1 is instrumented now; blame the rest
	gen2 := promotedPlan(t, pc, gen1, prof1, 1)

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
	// depends only on program, branch set and syscall flag. The lineage-
	// free twin is a fresh plan, so its fingerprint is hashed afresh.
	clone := &Plan{
		Strategy:     gen2.Strategy,
		Instrumented: gen2.Instrumented,
		LogSyscalls:  gen2.LogSyscalls,
		ProgHash:     gen2.ProgHash,
		Cost:         gen2.Cost,
	}
	if clone.Fingerprint() != gen2.Fingerprint() {
		t.Error("lineage leaked into the fingerprint")
	}

	// Names and fingerprints are identities the plan store and every
	// deployed report refer to, so their bytes are pinned: equal decisions
	// must keep rendering the same name and hashing the same plan.
	demo := demoProfile(base)
	wpc := NewPlanContext(wideProgram(t), Inputs{Dynamic: &concolic.Report{Runs: 1}}, true)
	all := planOf(t, All(), wpc)
	var seven []lang.BranchID
	wideProf := &SearchProfile{PlanFingerprint: all.Fingerprint(), Runs: 2, Branches: map[lang.BranchID]*BranchCost{}}
	for id := lang.BranchID(0); id < 7; id++ {
		wideProf.Branches[id] = &BranchCost{LoggedExecs: 3}
		seven = append(seven, id)
	}
	for _, tc := range []struct {
		name     string
		plan     *Plan
		strategy string
		fp       string
	}{
		{"promote-only", promotedPlan(t, pc, base, fakeProfile(base), 1),
			"refine(dynamic@e51408c6,gen1,+b1)", "eb01439153c3086aba2bbf8065d50375"},
		{"demote-only", refinedPlan(t, pc, base, demo, nil, demo.Demotable(base.Instrumented)),
			"refine(dynamic@e51408c6,gen1,+none,-b0)", "1de2d53f01e4e5063b638e8adea139eb"},
		{"promote-and-demote", refinedPlan(t, pc, base, demo, demo.TopBlowup(1, base.Instrumented), demo.Demotable(base.Instrumented)),
			"refine(dynamic@e51408c6,gen1,+b1,-b0)", "7888cd3a88387a42c16c6b409e7e5736"},
		{"hashed-set", refinedPlan(t, wpc, all, wideProf, nil, wideProf.Demotable(all.Instrumented)),
			"refine(all@c0825738,gen1,+none,-7@59c04100)", "b9269c33f0ba2eb37502f27d0414b190"},
	} {
		if tc.plan.Strategy != tc.strategy || tc.plan.Fingerprint() != tc.fp {
			t.Errorf("%s: strategy %q fingerprint %s, want %q %s",
				tc.name, tc.plan.Strategy, tc.plan.Fingerprint(), tc.strategy, tc.fp)
		}
	}
	if got := wideProf.Demotable(all.Instrumented); !reflect.DeepEqual(got, seven) {
		t.Errorf("hashed-set fixture demotes %v, want %v", got, seven)
	}
}

// wideProgram has 8 branch locations, one per input byte: enough for a
// refinement that names more than 6 branches (the hashed idsTag form).
func wideProgram(t *testing.T) *lang.Program {
	t.Helper()
	u, err := lang.ParseUnit("w", lang.RegionApp, `
int main() {
	char a[8];
	getarg(0, a, 8);
	if (a[0] == 'a') { }
	if (a[1] == 'b') { }
	if (a[2] == 'c') { }
	if (a[3] == 'd') { }
	if (a[4] == 'e') { }
	if (a[5] == 'f') { }
	if (a[6] == 'g') { }
	if (a[7] == 'h') { }
	return 0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := lang.Link([]*lang.Unit{u})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Branches) != 8 {
		t.Fatalf("want 8 branches, got %d", len(p.Branches))
	}
	return p
}

func TestRefineFixedPointOnSilentProfile(t *testing.T) {
	pc := NewPlanContext(fakeProgram(t), fakeInputs(), true)
	base, err := Dynamic().Plan(context.Background(), pc)
	if err != nil {
		t.Fatal(err)
	}
	empty := &SearchProfile{PlanFingerprint: base.Fingerprint(), Runs: 3, Branches: nil}
	p := promotedPlan(t, pc, base, empty, 4)
	if p.Fingerprint() != base.Fingerprint() {
		t.Errorf("silent profile changed the branch set: %v vs %v", p.IDs(), base.IDs())
	}
	if p.Generation != 1 {
		t.Errorf("fixed-point plan generation %d, want 1 (callers compare fingerprints)", p.Generation)
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
