package pathlog

import (
	"context"
	"strings"
	"testing"
	"time"

	"pathlog/internal/lang"
)

// demoRefuseSrc is built so that evidence-based demotion is measurably
// wrong: the uninstrumented crash driver (b[0] == 'K') executes BEFORE the
// always-agreeing instrumented loop branch (a[i] == 'x', user bytes equal
// the neutral seed). With the loop instrumented, replay flips the driver's
// pending alternative immediately and reproduces in ~2 runs, and the loop
// bits never once disagree — the exact Demotable shape. Demoted, the loop
// forks at every iteration AFTER the driver's fork, so depth-first search
// buries the productive driver alternative under the loop's speculative
// subtree and the measured replay regresses far past the target.
const demoRefuseSrc = `
int main() {
	char b[4];
	getarg(1, b, 4);
	char a[8];
	getarg(0, a, 8);
	int hit = 0;
	if (b[0] == 'K') {
		hit = 1;
	}
	int i;
	int n = 0;
	for (i = 0; i < 6; i = i + 1) {
		if (a[i] == 'x') {
			n = n + 1;
		}
	}
	if (hit == 1) {
		crash(7);
	}
	print_str("ok");
	return 0;
}
`

// demoAcceptSrc reorders the same ingredients so demotion is measurably
// right: the agreeing loop executes BEFORE the driver, the driver's fork
// is always the newest pending set, and depth-first search pops it first —
// dropping the loop's bits cannot regress the search, only shrink the log.
const demoAcceptSrc = `
int main() {
	char a[8];
	getarg(0, a, 8);
	int n = 0;
	int i;
	for (i = 0; i < 6; i = i + 1) {
		if (a[i] == 'x') {
			n = n + 1;
		}
	}
	char b[4];
	getarg(1, b, 4);
	if (b[0] == 'K') {
		crash(7);
	}
	print_str("ok");
	return 0;
}
`

// demoSession compiles one of the demo sources into a session whose plan
// instruments everything except the branches on the marker lines (the
// crash driver chain), so the instrumented set is exactly the
// always-agreeing branches demotion will propose.
func demoSession(t *testing.T, src string, uninstrumented ...string) (*Session, Strategy) {
	t.Helper()
	prog, err := Compile(Unit{Name: "demo.mc", Source: src})
	if err != nil {
		t.Fatal(err)
	}
	skip := make(map[lang.BranchID]bool)
	lines := strings.Split(src, "\n")
	for _, marker := range uninstrumented {
		found := false
		for _, b := range prog.Branches {
			if b.Pos.Line >= 1 && b.Pos.Line <= len(lines) &&
				strings.Contains(lines[b.Pos.Line-1], marker) {
				skip[b.ID] = true
				found = true
			}
		}
		if !found {
			t.Fatalf("marker %q matches no branch", marker)
		}
	}
	strat := &fixedSetStrategy{prog: prog, skip: skip}
	spec := &Spec{Args: []Stream{ArgStream(0, "xxxxxx", 8), ArgStream(1, "zzz", 4)}}
	sess := NewSession(prog, spec,
		WithUserBytes(map[string][]byte{"arg0": []byte("xxxxxx"), "arg1": []byte("K")}),
		WithSyscallLog(),
		WithStrategy(strat),
		WithReplayBudget(400, 10*time.Second),
	)
	return sess, strat
}

// fixedSetStrategy instruments every branch except an explicit skip set.
type fixedSetStrategy struct {
	prog *Program
	skip map[lang.BranchID]bool
}

func (f *fixedSetStrategy) Name() string { return "all-minus-drivers" }

func (f *fixedSetStrategy) Plan(ctx context.Context, pc *PlanContext) (*Plan, error) {
	set := make(map[lang.BranchID]bool)
	for _, b := range f.prog.Branches {
		if !f.skip[b.ID] {
			set[b.ID] = true
		}
	}
	return pc.NewPlan(f.Name(), set), nil
}

// demoCorpus records the session's user input once and wraps it as a
// one-member corpus carrying the redeployment input.
func demoCorpus(t *testing.T, sess *Session) *Corpus {
	t.Helper()
	ctx := context.Background()
	plan, err := sess.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := sess.RecordWith(ctx, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		t.Fatal("demo program did not crash")
	}
	c, err := BuildCorpus([]CorpusMember{{
		Rec:       rec,
		ModTime:   time.Unix(1_700_000_000, 0),
		UserBytes: map[string][]byte{"arg0": []byte("xxxxxx"), "arg1": []byte("K")},
	}}, CorpusIngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCorpusBalanceRefusesMeasuredRegression is the demotion-safety
// acceptance check: every candidate branch is evidence-demotable (bits
// consumed, zero disagreements), yet dropping them measurably regresses
// the replay past the target — so CorpusBalance must refuse the demotion
// by name, keep the measured plan deployed, and never advance the lineage
// to the regressed generation.
func TestCorpusBalanceRefusesMeasuredRegression(t *testing.T) {
	ctx := context.Background()
	sess, _ := demoSession(t, demoRefuseSrc, "b[0] == 'K'", "hit == 1")
	c := demoCorpus(t, sess)

	tr, err := sess.CorpusBalance(ctx, c, BalanceOptions{TargetReplayRuns: 10, MaxGenerations: 3})
	if err != nil {
		t.Fatalf("CorpusBalance: %v", err)
	}
	if !tr.Converged {
		t.Fatalf("population did not meet the target at generation 0: %s", tr.Reason)
	}
	gen0 := tr.Points[0]
	if gen0.MeanReplayRuns > 10 || gen0.Reproduced != gen0.Members {
		t.Fatalf("fixture drifted: gen0 measured %.1f runs, %d/%d", gen0.MeanReplayRuns, gen0.Reproduced, gen0.Members)
	}
	if tr.DemotionRefused == "" {
		t.Fatal("demotion was not refused — the regression went unmeasured")
	}
	if !strings.Contains(tr.DemotionRefused, "refused") || !strings.Contains(tr.DemotionRefused, "b") {
		t.Errorf("refusal does not name the demotion: %q", tr.DemotionRefused)
	}
	final := tr.Final()
	if final.Plan.Fingerprint() != gen0.Plan.Fingerprint() {
		t.Errorf("refused demotion still replaced the plan: %s -> %s",
			gen0.Plan.Fingerprint(), final.Plan.Fingerprint())
	}
	if final.Plan.Generation != 0 {
		t.Errorf("refused demotion advanced the lineage to generation %d", final.Plan.Generation)
	}
	// The evidence really did propose a demotion — the refusal was a
	// measured decision, not a missing candidate.
	if len(gen0.Outcome.Profile.Demotable(gen0.Plan.Instrumented)) == 0 {
		t.Error("fixture drifted: no demotable candidates at generation 0")
	}
}

// TestCorpusBalanceAcceptsMeasuredDemotion is the mirror image: the same
// agreeing branches, but ordered so dropping them cannot regress the
// search — the demotion must be accepted with measured overhead strictly
// below the pre-demotion plan and the report still reproducing.
func TestCorpusBalanceAcceptsMeasuredDemotion(t *testing.T) {
	ctx := context.Background()
	sess, _ := demoSession(t, demoAcceptSrc, "b[0] == 'K'")
	c := demoCorpus(t, sess)

	tr, err := sess.CorpusBalance(ctx, c, BalanceOptions{TargetReplayRuns: 10, MaxGenerations: 3})
	if err != nil {
		t.Fatalf("CorpusBalance: %v", err)
	}
	if !tr.Converged {
		t.Fatalf("did not converge: %s", tr.Reason)
	}
	if tr.DemotionRefused != "" {
		t.Fatalf("safe demotion refused: %s", tr.DemotionRefused)
	}
	final := tr.Final()
	gen0 := tr.Points[0]
	if len(final.Demoted) == 0 || final.Plan.Generation == 0 {
		t.Fatalf("nothing was demoted: %+v (%s)", final, tr.Reason)
	}
	if !(final.MeanOverheadBits < gen0.MeanOverheadBits) {
		t.Errorf("measured overhead did not shrink: %.1f -> %.1f", gen0.MeanOverheadBits, final.MeanOverheadBits)
	}
	if final.Reproduced != final.Members {
		t.Errorf("demoted generation lost reproductions: %d/%d", final.Reproduced, final.Members)
	}
	if final.MeanReplayRuns > 10 {
		t.Errorf("demoted generation misses the target: %.1f runs", final.MeanReplayRuns)
	}
	if final.Plan.Parent != gen0.Plan.Fingerprint() {
		t.Errorf("demoted generation's lineage broken: parent %s, want %s",
			final.Plan.Parent, gen0.Plan.Fingerprint())
	}
}

// TestCorpusBalanceNeedsInputs: an ingested corpus with no attached user
// inputs cannot be redeployed; the error points at the alternatives.
func TestCorpusBalanceNeedsInputs(t *testing.T) {
	ctx := context.Background()
	sess, _ := demoSession(t, demoAcceptSrc, "b[0] == 'K'")
	c := demoCorpus(t, sess)
	c.Reports[0].UserBytes = nil
	_, err := sess.CorpusBalance(ctx, c, BalanceOptions{})
	if err == nil || !strings.Contains(err.Error(), "AttachInput") {
		t.Errorf("input-less corpus accepted, or error unhelpful: %v", err)
	}
}

// TestReplayCorpusRefusesMixedPlans: members recorded under different
// plans must not blend into one attribution.
func TestReplayCorpusRefusesMixedPlans(t *testing.T) {
	ctx := context.Background()
	sess, _ := demoSession(t, demoAcceptSrc, "b[0] == 'K'")
	plan, err := sess.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	recA, _, err := sess.RecordWith(ctx, plan, nil)
	if err != nil || recA == nil {
		t.Fatalf("record: %v", err)
	}
	allPlan, err := sess.PlanWith(ctx, All())
	if err != nil {
		t.Fatal(err)
	}
	recB, _, err := sess.RecordWith(ctx, allPlan, nil)
	if err != nil || recB == nil {
		t.Fatalf("record: %v", err)
	}
	c, err := BuildCorpus([]CorpusMember{
		{Rec: recA, ModTime: time.Unix(1_700_000_000, 0)},
		{Rec: recB, ModTime: time.Unix(1_700_000_100, 0)},
	}, CorpusIngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.ReplayCorpus(ctx, c, CorpusOptions{})
	if err == nil || !strings.Contains(err.Error(), "mixed plans") {
		t.Errorf("mixed-plan corpus accepted: %v", err)
	}
}

// TestRefineCorpusPersistsAndDemotes: one corpus refinement step on the
// accept fixture promotes nothing (the search is already fast), demotes
// the agreeing branches, and — store-backed — retains both generations,
// the merged profile, and the measured lineage.
func TestRefineCorpusPersistsAndDemotes(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	sess, _ := demoSession(t, demoAcceptSrc, "b[0] == 'K'")
	sess.cfg.storeDir = dir
	c := demoCorpus(t, sess)

	ref, err := sess.RefineCorpus(ctx, c, CorpusOptions{Shards: 2})
	if err != nil {
		t.Fatalf("RefineCorpus: %v", err)
	}
	if len(ref.Demoted) == 0 {
		t.Fatalf("no demotion proposed: %+v", ref)
	}
	if ref.Plan.Fingerprint() == ref.Base.Fingerprint() {
		t.Fatal("refinement was a fixed point despite demotable branches")
	}
	if ref.Plan.Generation != ref.Base.Generation+1 || ref.Plan.Parent != ref.Base.Fingerprint() {
		t.Errorf("lineage: gen %d parent %s", ref.Plan.Generation, ref.Plan.Parent)
	}
	st, err := sess.PlanStore()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetPlan(ref.Plan.Fingerprint()); err != nil {
		t.Errorf("refined plan not retained: %v", err)
	}
	if _, err := st.GetProfile(ref.Base.Fingerprint()); err != nil {
		t.Errorf("merged corpus profile not retained under the base generation: %v", err)
	}

	// The refined chain head is now the session's latest generation: a
	// second step over the stale gen-0 corpus must be refused as stale.
	_, err = sess.RefineCorpus(ctx, c, CorpusOptions{})
	if err == nil || !strings.Contains(err.Error(), "stale") {
		t.Errorf("stale corpus accepted for refinement: %v", err)
	}
}

// TestPlansDependOnlyOnTheAnalysis: a plan is decided and priced from the
// pre-deployment analysis alone, so every DefaultSweep strategy and every
// Budgeted(Dynamic(), k) yields the same fingerprint and cost estimate in
// a fresh session, in a session that has already run a refinement step,
// and in a store-backed session that swept the frontier over a store a
// balance loop filled with measured points and search profiles. What the
// developer site measures reaches the frontier only as stored measured
// points, never by re-pricing the plans a session builds.
func TestPlansDependOnlyOnTheAnalysis(t *testing.T) {
	ctx := context.Background()
	for _, sc := range []struct {
		name    string
		mk      func(opts ...Option) *Session
		balance BalanceOptions
	}{
		// The chain deploys a plan that logs no branch, so its searches fork
		// at every chain branch.
		{"chain", func(opts ...Option) *Session {
			return chainSession(t, append([]Option{WithStrategy(Budgeted(All(), 0))}, opts...)...)
		}, BalanceOptions{MaxGenerations: 2, TargetReplayRuns: 2}},
		{"userver-exp3", func(opts ...Option) *Session { return uServerBalanceSession(t, opts...) },
			BalanceOptions{MaxGenerations: 4, TargetReplayRuns: 200}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			fresh := sc.mk()
			strats := DefaultSweep(len(fresh.prog.Branches))
			for k := 1; k <= 4; k++ {
				strats = append(strats, Budgeted(Dynamic(), k))
			}

			// One refinement step in a session, from a report recorded under
			// the session's own plan.
			refined := sc.mk()
			plan, err := refined.Plan(ctx)
			if err != nil {
				t.Fatal(err)
			}
			rec, _, err := refined.RecordWith(ctx, plan, nil)
			if err != nil || rec == nil {
				t.Fatalf("record under %s: %v (recording %v)", plan.Strategy, err, rec != nil)
			}
			if _, err := refined.RefineCorpus(ctx, oneReport(t, rec), CorpusOptions{}); err != nil {
				t.Fatal(err)
			}

			// A store one balance loop filled, then a frontier sweep over it
			// from a new session.
			dir := t.TempDir()
			if _, err := sc.mk(WithPlanStore(dir)).AutoBalance(ctx, nil, sc.balance); err != nil {
				t.Fatal(err)
			}
			swept := sc.mk(WithPlanStore(dir))
			if _, err := swept.Frontier(ctx); err != nil {
				t.Fatal(err)
			}

			for _, strat := range strats {
				want, err := fresh.PlanWith(ctx, strat)
				if err != nil {
					t.Fatal(err)
				}
				for _, arm := range []struct {
					name string
					sess *Session
				}{{"after RefineCorpus", refined}, {"after a stored balance and a sweep", swept}} {
					got, err := arm.sess.PlanWith(ctx, strat)
					if err != nil {
						t.Fatal(err)
					}
					if got.Fingerprint() != want.Fingerprint() || got.Cost != want.Cost {
						t.Errorf("%s %s: plan %v %+v, fresh session %v %+v",
							strat.Name(), arm.name, got.IDs(), got.Cost, want.IDs(), want.Cost)
					}
				}
			}
		})
	}
}

// TestWorkloadHashIdentity: satellite acceptance for workload identity —
// renaming a session must not move its measured history, changing its
// user bytes must.
func TestWorkloadHashIdentity(t *testing.T) {
	a := chainSession(t, WithName("one"))
	b := chainSession(t, WithName("two"))
	if a.WorkloadHash() != b.WorkloadHash() {
		t.Error("renamed session changed its workload hash")
	}
	c := chainSession(t, WithUserBytes(map[string][]byte{"arg0": []byte("REPLAX")}))
	if c.WorkloadHash() == a.WorkloadHash() {
		t.Error("different user bytes share a workload hash")
	}
	if len(a.WorkloadHash()) != 32 {
		t.Errorf("workload hash %q is not 32 hex chars", a.WorkloadHash())
	}
}
