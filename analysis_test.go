package pathlog

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"pathlog/internal/apps"
	"pathlog/internal/concolic"
)

// TestDiffAnalysisProvesEveryGiveUp pins diff's pre-deployment analysis, the
// costliest of the paper's programs. Its child problems used to include 92
// the solver gave up on after spending its whole work budget — equal lines
// asked to hash differently — which equality unification now proves unsat.
// A proof and a give-up both yield no child, so the exploration, its labels
// and the plan built from them must stay exactly what they were: the call
// counts, the label digest and the fingerprint are those of the solver
// without unification.
func TestDiffAnalysisProvesEveryGiveUp(t *testing.T) {
	s, err := apps.DiffExperimentScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess := NewSession(apps.DiffProgram(), s.Spec, WithDynamicBudget(40, 0), WithSyscallLog())
	in, err := sess.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st := in.Dynamic.SolverStats
	if st.GaveUp != 0 {
		t.Errorf("the analysis gave up on %d child problems: %+v", st.GaveUp, st)
	}
	if st.Calls != 2326 || st.Sat != 1639 || st.Unsat != 687 {
		t.Errorf("solver outcomes moved: %+v, want 2326 calls, 1639 sat, 687 unsat", st)
	}

	ids := make([]int, 0, len(in.Dynamic.Labels))
	count := map[concolic.Label]int{}
	for id, l := range in.Dynamic.Labels {
		ids = append(ids, int(id))
		count[l]++
	}
	sort.Ints(ids)
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%d:%s\n", id, in.Dynamic.Labels[BranchID(id)])
	}
	// 13 symbolic, 38 concrete, 69 unvisited.
	if digest, want := hex.EncodeToString(h.Sum(nil)), "4724a4f116dfd3703f77d58af52c8a1c58be11fe3414f1202da65bd72199c351"; digest != want {
		t.Errorf("dynamic labels moved (%v): digest %s, want %s", count, digest, want)
	}

	plan, err := sess.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fp, want := plan.Fingerprint(), "610e9fa69016c8a49220caa86c8d3769"; fp != want {
		t.Errorf("plan fingerprint %s, want %s", fp, want)
	}
}
