package instrument

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"pathlog/internal/lang"
)

// demoProfile builds a profile with demotion evidence on top of the
// refinement fixture: b0 (instrumented by the dynamic plan) consumed bits
// that never disagreed — the demotable shape — while b1/b4/b3 carry the
// blowup charges of fakeProfile.
func demoProfile(plan *Plan) *SearchProfile {
	p := fakeProfile(plan)
	p.Branches[0] = &BranchCost{LoggedExecs: 40}
	return p
}

func TestDemotable(t *testing.T) {
	instrumented := map[lang.BranchID]bool{0: true, 2: true, 5: true, 7: true}
	p := &SearchProfile{Branches: map[lang.BranchID]*BranchCost{
		0: {LoggedExecs: 10},                  // instrumented, agreed always: demotable
		2: {LoggedExecs: 8, Disagreements: 1}, // its bits constrained the search: kept
		5: {},                                 // never exercised: silence is not evidence
		7: {LoggedExecs: 3},                   // demotable; sorts after b0
		9: {LoggedExecs: 4, Disagreements: 0}, // not instrumented: nothing to demote
		1: {Forks: 12, AbortedRuns: 3},        // uninstrumented blowup: promotion's business
	}}
	got := p.Demotable(instrumented)
	want := []lang.BranchID{0, 7}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Demotable = %v, want %v", got, want)
	}
}

func TestMergeWeightedScalesRunCostNotEvidence(t *testing.T) {
	src := &SearchProfile{
		PlanFingerprint: "aa11",
		ProgHash:        "bb22",
		Runs:            10,
		Aborts:          8,
		Branches: map[lang.BranchID]*BranchCost{
			1: {Forks: 10, AbortedRuns: 4, SolverCalls: 6,
				SolverTime: 1000 * time.Nanosecond, LoggedExecs: 5, Disagreements: 2},
		},
	}
	var acc SearchProfile
	if err := acc.MergeWeighted(src, 0.5); err != nil {
		t.Fatal(err)
	}
	bc := acc.Branches[1]
	if bc.Forks != 5 || bc.AbortedRuns != 2 || bc.SolverCalls != 3 || bc.SolverTime != 500 {
		t.Errorf("run-cost counters not scaled by 0.5: %+v", bc)
	}
	if bc.LoggedExecs != 5 || bc.Disagreements != 2 {
		t.Errorf("evidence counters must merge unscaled: %+v", bc)
	}
	if acc.Runs != 5 || acc.Aborts != 4 {
		t.Errorf("runs/aborts not scaled: %d/%d", acc.Runs, acc.Aborts)
	}
	// ForkRate stays the weighted rate: 5 forks over 5 runs = the source's
	// 10/10.
	if got := acc.ForkRate(1); got != 1 {
		t.Errorf("weighted fork rate %g, want 1", got)
	}
	// A tiny weight shrinks a charge but never erases it (floor of 1).
	var tiny SearchProfile
	if err := tiny.MergeWeighted(src, 0.001); err != nil {
		t.Fatal(err)
	}
	if tiny.Branches[1].Forks != 1 {
		t.Errorf("nonzero charge scaled to %d, want floor 1", tiny.Branches[1].Forks)
	}
}

func TestMergeWeightedGroupingInvariance(t *testing.T) {
	mk := func(seed int64) *SearchProfile {
		return &SearchProfile{
			PlanFingerprint: "aa11",
			Runs:            int(10 + seed),
			Branches: map[lang.BranchID]*BranchCost{
				lang.BranchID(seed % 3): {Forks: 7 * seed, AbortedRuns: seed, LoggedExecs: seed},
				lang.BranchID(seed % 5): {SolverCalls: seed, Disagreements: 1},
			},
		}
	}
	weights := []float64{1.7, 0.3, 2.2, 0.9}
	var fwd, rev SearchProfile
	for i := 0; i < 4; i++ {
		if err := fwd.MergeWeighted(mk(int64(i+1)), weights[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 3; i >= 0; i-- {
		if err := rev.MergeWeighted(mk(int64(i+1)), weights[i]); err != nil {
			t.Fatal(err)
		}
	}
	if fwd.Runs != rev.Runs || !reflect.DeepEqual(fwd.Branches, rev.Branches) {
		t.Errorf("weighted merge depends on order:\nfwd %+v\nrev %+v", fwd, rev)
	}
}

func TestMergeWeightedRefusals(t *testing.T) {
	src := &SearchProfile{PlanFingerprint: "aa11", Runs: 1}
	var acc SearchProfile
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if err := acc.MergeWeighted(src, w); err == nil {
			t.Errorf("weight %g accepted", w)
		}
	}
	acc.PlanFingerprint = "ff00"
	if err := acc.MergeWeighted(src, 1); err == nil {
		t.Error("foreign plan fingerprint accepted")
	}
}

func TestRefinePromotesAndDemotes(t *testing.T) {
	pc := NewPlanContext(fakeProgram(t), fakeInputs(), true)
	base, err := Dynamic().Plan(context.Background(), pc)
	if err != nil {
		t.Fatal(err)
	}
	profile := demoProfile(base)
	promote, demote := profile.TopBlowup(1, base.Instrumented), profile.Demotable(base.Instrumented)
	if !reflect.DeepEqual(promote, []lang.BranchID{1}) || !reflect.DeepEqual(demote, []lang.BranchID{0}) {
		t.Fatalf("fixture drifted: promote %v demote %v", promote, demote)
	}

	p := refinedPlan(t, pc, base, profile, promote, demote)
	if !p.Instrumented[1] {
		t.Error("top blowup branch b1 not promoted")
	}
	if p.Instrumented[0] {
		t.Error("proven-redundant branch b0 not demoted")
	}
	if p.Generation != 1 || p.Parent != base.Fingerprint() {
		t.Errorf("lineage: generation %d parent %s", p.Generation, p.Parent)
	}
	if !strings.Contains(p.Strategy, "+b1") || !strings.Contains(p.Strategy, "-b0") {
		t.Errorf("strategy name %q does not describe both directions", p.Strategy)
	}

	// Demote-only: same demotion, no promotion, and the name says so.
	d := refinedPlan(t, pc, base, profile, nil, demote)
	if d.Instrumented[0] || d.Instrumented[1] {
		t.Errorf("demote-only plan instruments %v", d.IDs())
	}
	if !strings.Contains(d.Strategy, "+none") || !strings.Contains(d.Strategy, "-b0") {
		t.Errorf("demote-only name %q", d.Strategy)
	}

	// Promotion-only names are byte-compatible with the pre-demotion
	// format: no "-" tag appears when nothing is demoted.
	r := refinedPlan(t, pc, base, profile, promote, nil)
	if strings.Contains(r.Strategy, ",-") {
		t.Errorf("promotion-only name %q grew a demotion tag", r.Strategy)
	}
	if !r.Instrumented[0] {
		t.Error("promotion-only refinement demoted b0 — it must keep the base set")
	}

	// A profile with no demotion evidence decides an empty demotion, and
	// an empty decision is a fixed point.
	noEvidence := fakeProfile(base)
	np := refinedPlan(t, pc, base, noEvidence, nil, noEvidence.Demotable(base.Instrumented))
	if np.Fingerprint() != base.Fingerprint() {
		t.Errorf("no-evidence demotion moved the plan: %s vs %s", np.Fingerprint(), base.Fingerprint())
	}

	// The strategy keeps its own copy of the decision: a caller reusing its
	// slices cannot change a plan the name already describes.
	strat, err := Refine(base, profile, promote, demote)
	if err != nil {
		t.Fatal(err)
	}
	promote[0], demote[0] = 4, 3
	if q, err := strat.Plan(context.Background(), pc); err != nil || q.Fingerprint() != p.Fingerprint() {
		t.Errorf("mutating the decided sets changed the refined plan: %v", err)
	}
}

func TestRefineTopKContract(t *testing.T) {
	// The documented contract everywhere TopK appears: k <= 0 selects
	// DefaultRefineTopK — including negative values. TopBlowup is the
	// promotion decision, so the rule lives there.
	pc := NewPlanContext(fakeProgram(t), fakeInputs(), true)
	base, err := Dynamic().Plan(context.Background(), pc)
	if err != nil {
		t.Fatal(err)
	}
	profile := fakeProfile(base)
	def := profile.TopBlowup(DefaultRefineTopK, base.Instrumented)
	for _, k := range []int{0, -1} {
		if got := profile.TopBlowup(k, base.Instrumented); !reflect.DeepEqual(got, def) {
			t.Errorf("TopBlowup(k=%d) = %v, TopBlowup(k=Default) = %v", k, got, def)
		}
	}
	neg := promotedPlan(t, pc, base, profile, -1)
	if neg.Fingerprint() != promotedPlan(t, pc, base, profile, DefaultRefineTopK).Fingerprint() {
		t.Error("promotion at k=-1 differs from promotion at k=Default")
	}
	if neg.Fingerprint() == base.Fingerprint() {
		t.Error("promotion at k=-1 promoted nothing")
	}
}

func TestDemotableAt(t *testing.T) {
	instrumented := map[lang.BranchID]bool{0: true, 2: true, 5: true, 7: true}
	p := &SearchProfile{Branches: map[lang.BranchID]*BranchCost{
		0: {LoggedExecs: 10},                    // silent: demotable at any rate
		2: {LoggedExecs: 100, Disagreements: 1}, // rate 0.01: below a 5% threshold
		7: {LoggedExecs: 10, Disagreements: 2},  // rate 0.2: above it
		5: {},                                   // never exercised: silence is not evidence
	}}
	// Rate 0 (and negative) reproduce the strict rule exactly.
	for _, rate := range []float64{0, -1} {
		if got, want := p.DemotableAt(instrumented, rate), p.Demotable(instrumented); !reflect.DeepEqual(got, want) {
			t.Errorf("DemotableAt(%g) = %v, want strict %v", rate, got, want)
		}
	}
	if got, want := p.DemotableAt(instrumented, 0.05), []lang.BranchID{0, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("DemotableAt(0.05) = %v, want %v", got, want)
	}
	if got, want := p.DemotableAt(instrumented, 0.5), []lang.BranchID{0, 2, 7}; !reflect.DeepEqual(got, want) {
		t.Errorf("DemotableAt(0.5) = %v, want %v", got, want)
	}
}

func TestDemoteAtRate(t *testing.T) {
	pc := NewPlanContext(fakeProgram(t), fakeInputs(), true)
	base, err := Dynamic().Plan(context.Background(), pc)
	if err != nil {
		t.Fatal(err)
	}
	profile := fakeProfile(base)
	// b0 disagreed once in 40 consumed bits: kept by the strict rule,
	// dropped under a 5% threshold.
	profile.Branches[0] = &BranchCost{LoggedExecs: 40, Disagreements: 1}

	sp := refinedPlan(t, pc, base, profile, nil, profile.DemotableAt(base.Instrumented, 0))
	if sp.Fingerprint() != base.Fingerprint() {
		t.Errorf("strict demotion moved the plan despite a disagreement")
	}

	lp := refinedPlan(t, pc, base, profile, nil, profile.DemotableAt(base.Instrumented, 0.05))
	if lp.Instrumented[0] {
		t.Errorf("demotion at rate 0.05 kept b0 (1 disagreement over 40 execs)")
	}
	if lp.Generation != 1 || lp.Parent != base.Fingerprint() {
		t.Errorf("lineage: generation %d parent %s", lp.Generation, lp.Parent)
	}
}
