package replay

import (
	"context"
	"testing"

	"pathlog/internal/instrument"
	"pathlog/internal/lang"
	"pathlog/internal/world"
)

// agreeBranchSrc has one instrumented branch whose recorded direction
// matches the neutral seed (a[0] == 'x' with seed "xx") — its bits are
// consumed on every run but never contradict anything — and one
// uninstrumented crash driver the search must flip.
const agreeBranchSrc = `
int main() {
	char a[4];
	getarg(0, a, 4);
	if (a[0] == 'x') {
		print_str("s");
	}
	if (a[1] == 'K') {
		crash(1);
	}
	return 0;
}
`

// TestDisagreementAttribution pins the demotion evidence the replay
// engine charges: consumed log bits per instrumented branch
// (BranchCost.LoggedExecs) and the bits that contradicted a run's own
// direction (BranchCost.Disagreements, §3.1 case 2b).
func TestDisagreementAttribution(t *testing.T) {
	ctx := context.Background()

	// The forced chain of sideBranchSrc: replaying "PQx" from the neutral
	// seed "xxx" walks two case-2b disagreements (the log forces 'P' then
	// 'Q' against the seed's 'x'), so neither chain branch is demotable —
	// their bits are exactly what steers the search.
	prog := compile(t, sideBranchSrc)
	spec := &world.Spec{Args: []world.Stream{world.ArgSpec(0, "xxx", 4)}}
	plan := &instrument.Plan{
		Instrumented: map[lang.BranchID]bool{0: true, 1: true},
	}
	rec := record(t, prog, spec, plan, map[string][]byte{"arg0": []byte("PQx")})
	res := New(prog, spec, world.NewRegistry(), rec, Options{MaxRuns: 50}).Reproduce(ctx)
	if !res.Reproduced {
		t.Fatalf("chain did not reproduce: %+v", res)
	}
	p := res.Profile
	for _, id := range []lang.BranchID{0, 1} {
		bc := p.Branch(id)
		if bc.Disagreements == 0 {
			t.Errorf("b%d: forced-direction chain shows no disagreements: %+v", id, bc)
		}
		if bc.LoggedExecs == 0 {
			t.Errorf("b%d: consumed bits not charged: %+v", id, bc)
		}
	}
	if bc := p.Branch(2); bc.LoggedExecs != 0 || bc.Disagreements != 0 {
		t.Errorf("uninstrumented b2 charged logged evidence: %+v", bc)
	}
	if got := p.Demotable(plan.Instrumented); len(got) != 0 {
		t.Errorf("chain branches proposed for demotion despite disagreements: %v", got)
	}

	// The agreeing branch: bits consumed on every run, zero
	// disagreements — the exact evidence Demotable keys on.
	prog2 := compile(t, agreeBranchSrc)
	spec2 := &world.Spec{Args: []world.Stream{world.ArgSpec(0, "xx", 4)}}
	plan2 := &instrument.Plan{
		Instrumented: map[lang.BranchID]bool{0: true},
	}
	rec2 := record(t, prog2, spec2, plan2, map[string][]byte{"arg0": []byte("xK")})
	res2 := New(prog2, spec2, world.NewRegistry(), rec2, Options{MaxRuns: 50}).Reproduce(ctx)
	if !res2.Reproduced {
		t.Fatalf("agree fixture did not reproduce: %+v", res2)
	}
	bc := res2.Profile.Branch(0)
	if bc.Disagreements != 0 {
		t.Errorf("always-agreeing branch charged %d disagreements", bc.Disagreements)
	}
	if bc.LoggedExecs < 2 {
		t.Errorf("agreeing branch consumed %d bits, want one per completed run (>= 2)", bc.LoggedExecs)
	}
	got := res2.Profile.Demotable(plan2.Instrumented)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("Demotable = %v, want [0]", got)
	}
}
