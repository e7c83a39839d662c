package pathlog

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pathlog/internal/store"
)

// storeChainSession builds a chain-program session backed by a plan store,
// with a Budgeted partial plan so replay takes real search work (measured
// replay runs that visibly disagree with the estimate).
func storeChainSession(t *testing.T, dir string, opts ...Option) *Session {
	t.Helper()
	base := []Option{
		WithPlanStore(dir),
		WithStrategy(Budgeted(Dynamic(), 3)),
	}
	return chainSession(t, append(base, opts...)...)
}

// Acceptance: a recording replayed with only WithPlanStore(dir) — no
// explicit plan path, a stamped-only reference envelope — resolves its
// exact stamped plan generation from the store.
func TestPlanStoreResolvesStampedRecording(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	// Deployment site: deploy a plan (retained by RecordWith) and ship a
	// stamped-only reference report.
	warm := storeChainSession(t, dir)
	plan, err := warm.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := warm.RecordWith(ctx, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		t.Fatal("no crash recorded")
	}
	ref := filepath.Join(t.TempDir(), "bug.report")
	if err := rec.SaveRef(ref); err != nil {
		t.Fatal(err)
	}

	// Developer site, cold session: the loaded report has no plan, only the
	// stamp; the store resolves it.
	loaded, err := LoadRecording(ref)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Plan != nil {
		t.Fatal("reference envelope should not embed a plan")
	}
	if loaded.Fingerprint != plan.Fingerprint() {
		t.Fatalf("stamp %s, want %s", loaded.Fingerprint, plan.Fingerprint())
	}
	cold := storeChainSession(t, dir)
	res, err := cold.Replay(ctx, loaded)
	if err != nil {
		t.Fatalf("store-backed replay refused: %v", err)
	}
	if !res.Reproduced {
		t.Fatalf("not reproduced: %d runs", res.Runs)
	}
	if res.Profile == nil || res.Profile.PlanFingerprint != plan.Fingerprint() {
		t.Fatalf("search did not run under the resolved plan: %+v", res.Profile)
	}
	// The caller's recording must stay untouched (resolution copies).
	if loaded.Plan != nil {
		t.Fatal("resolution mutated the caller's recording")
	}

	// The manual loop's single step resolves the stamped-only recording
	// the same way: RefineCorpus derives generation 1 from the retained
	// base.
	step, err := cold.RefineCorpus(ctx, oneReport(t, loaded), CorpusOptions{})
	if err != nil {
		t.Fatalf("refine of a stamped-only recording refused: %v", err)
	}
	refined := step.Plan
	if refined.Generation != 1 || refined.Parent != plan.Fingerprint() {
		t.Errorf("refined lineage wrong: generation %d parent %s (want 1, %s)",
			refined.Generation, refined.Parent, plan.Fingerprint())
	}
	st, err := cold.PlanStore()
	if err != nil {
		t.Fatal(err)
	}
	if !st.HasPlan(refined.Fingerprint()) {
		t.Error("refined generation not retained in the store")
	}
}

// A store-backed session refuses to deploy a plan with no program hash:
// a recording stamped with its fingerprint could never be resolved, so
// the deployment fails loudly instead of claiming retention.
func TestStoreRefusesUnidentifiedPlan(t *testing.T) {
	ctx := context.Background()
	sess := storeChainSession(t, t.TempDir())
	good, err := sess.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	bare := &Plan{Instrumented: good.Instrumented, LogSyscalls: good.LogSyscalls}
	_, _, err = sess.RecordWith(ctx, bare, nil)
	if err == nil || !strings.Contains(err.Error(), "program hash") {
		t.Fatalf("store-backed RecordWith deployed an unidentifiable plan: %v", err)
	}
}

// A damaged measured file degrades a Frontier sweep to estimates — it
// does not fail it; a damaged lineage index refuses session operations.
func TestDamagedStoreEntries(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	warm := storeChainSession(t, dir)
	if _, err := warm.AutoBalance(ctx, nil, BalanceOptions{MaxGenerations: 1}); err != nil {
		t.Fatal(err)
	}
	progHash := mustProgHash(t, warm)

	// Corrupt the measured history: the cold sweep still succeeds, with
	// no measured points (the estimates stand). Measured files key on the
	// workload hash, not the session name.
	measured := filepath.Join(dir, "measured", progHash, warm.WorkloadHash()+".json")
	if err := os.WriteFile(measured, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	cold := storeChainSession(t, dir)
	points, err := cold.Frontier(ctx)
	if err != nil {
		t.Fatalf("frontier failed on a damaged measured file: %v", err)
	}
	for _, pt := range points {
		if pt.Measured {
			t.Errorf("measured point surfaced from a damaged file: %+v", pt)
		}
	}

	// Corrupt the lineage index: session store operations refuse loudly
	// (trusting it could silently rewind refinement chains).
	lineage := filepath.Join(dir, "lineage", progHash+".json")
	if err := os.WriteFile(lineage, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	broken := storeChainSession(t, dir)
	if _, err := broken.PlanStore(); err == nil {
		t.Fatal("session opened a store with a damaged lineage index")
	}
}

// mustProgHash extracts the session program's hash via a retained plan.
func mustProgHash(t *testing.T, sess *Session) string {
	t.Helper()
	plan, err := sess.Plan(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if plan.ProgHash == "" {
		t.Fatal("plan has no program hash")
	}
	return plan.ProgHash
}

// Satellite: a recording whose fingerprint matches no stored plan is
// refused with the fingerprint in the error.
func TestPlanStoreRefusesUnknownFingerprint(t *testing.T) {
	ctx := context.Background()

	warm := storeChainSession(t, t.TempDir())
	rec, _, err := warm.Record(ctx, nil)
	if err != nil || rec == nil {
		t.Fatalf("record: %v (rec %v)", err, rec)
	}
	ref := filepath.Join(t.TempDir(), "bug.report")
	if err := rec.SaveRef(ref); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRecording(ref)
	if err != nil {
		t.Fatal(err)
	}

	// A different (empty) store: the stamp matches nothing.
	cold := storeChainSession(t, t.TempDir())
	_, err = cold.Replay(ctx, loaded)
	if err == nil {
		t.Fatal("replay accepted a recording whose stamp matches no retained plan")
	}
	if !errors.Is(err, ErrPlanNotFound) {
		t.Errorf("error does not wrap ErrPlanNotFound: %v", err)
	}
	if !strings.Contains(err.Error(), loaded.Fingerprint) {
		t.Errorf("refusal does not name the fingerprint %s: %v", loaded.Fingerprint, err)
	}

	// Without any store, the refusal names the stamp and the fix.
	bare := chainSession(t)
	_, err = bare.Replay(ctx, loaded)
	if err == nil || !strings.Contains(err.Error(), "WithPlanStore") {
		t.Errorf("storeless replay of a stamped-only recording should point at WithPlanStore: %v", err)
	}
}

// Acceptance: a second cold Frontier sweep over the same store marks >= 1
// point as Measured with nonzero rendered drift.
func TestColdFrontierFoldsStoredMeasurements(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	// A tight replay target forces at least one refinement, so the store
	// ends up holding a real chain (generation >= 1), not just a root.
	warm := storeChainSession(t, dir)
	tr, err := warm.AutoBalance(ctx, nil, BalanceOptions{MaxGenerations: 2, TargetReplayRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if final := tr.Final(); final == nil || final.Reproduced != final.Members {
		t.Fatalf("warm AutoBalance did not reproduce: %+v", tr)
	}
	if tr.Final().Generation < 1 {
		t.Fatalf("warm loop never refined (reason %q) — the resumption check below would be vacuous", tr.Reason)
	}

	cold := storeChainSession(t, dir)
	points, err := cold.Frontier(ctx)
	if err != nil {
		t.Fatal(err)
	}
	nMeasured, nDrift := 0, 0
	for _, pt := range points {
		if !pt.Measured {
			if pt.OverheadDrift() != 0 || pt.ReplayRunsDrift() != 0 {
				t.Errorf("estimated point %s reports drift", pt.Strategy)
			}
			continue
		}
		nMeasured++
		if pt.OverheadDrift() != 0 || pt.ReplayRunsDrift() != 0 {
			nDrift++
		}
	}
	if nMeasured == 0 {
		t.Fatalf("cold frontier has no measured points: %+v", points)
	}
	if nDrift == 0 {
		t.Errorf("no measured point renders nonzero drift: %+v", points)
	}

	// A third session that never analyzed anything can still resume the
	// chain: the store's lineage index seeds the session's bookkeeping, so
	// the loop redeploys the retained chain head, not generation 0.
	resumed := storeChainSession(t, dir)
	tr2, err := resumed.AutoBalance(ctx, nil, BalanceOptions{MaxGenerations: 2, TargetReplayRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr2.Points) == 0 {
		t.Fatal("cold AutoBalance produced no points")
	}
	if first := tr2.Points[0]; first.Generation < tr.Final().Generation {
		t.Errorf("cold AutoBalance rewound to generation %d; store lineage says the chain reached %d",
			first.Generation, tr.Final().Generation)
	}
}

// TestMergeMeasuredFrontier folds two stored measurements into a cold
// Frontier sweep: a remeasured plan's observed coordinates beat the
// estimate for the same fingerprint, a generation that did not reproduce
// is no measured point, and replay runs strictly decrease within each
// tier (estimated and measured) separately.
func TestMergeMeasuredFrontier(t *testing.T) {
	ctx := context.Background()
	sess := storeChainSession(t, t.TempDir())
	st, err := sess.PlanStore()
	if err != nil {
		t.Fatal(err)
	}
	in, err := sess.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pc := sess.planContext(in)
	censored, err := Sampled(All(), 0).Plan(ctx, pc)
	if err != nil {
		t.Fatal(err)
	}
	remeasured, err := All().Plan(ctx, pc)
	if err != nil {
		t.Fatal(err)
	}
	const measuredRuns = 2
	for _, mp := range []struct {
		plan *Plan
		pt   store.MeasuredPoint
	}{
		{censored, store.MeasuredPoint{OverheadBits: 0, ReplayRuns: 500, Reproduced: false}},
		{remeasured, store.MeasuredPoint{OverheadBits: 6, ReplayRuns: measuredRuns, Reproduced: true}},
	} {
		if err := st.PutPlan(mp.plan); err != nil {
			t.Fatal(err)
		}
		mp.pt.Fingerprint, mp.pt.Strategy = mp.plan.Fingerprint(), mp.plan.Strategy
		if err := st.AppendMeasured(mp.plan.ProgHash, sess.WorkloadHash(), mp.pt); err != nil {
			t.Fatal(err)
		}
	}

	merged, err := sess.Frontier(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) == 0 {
		t.Fatal("empty merged frontier")
	}
	sawRemeasured := false
	lastEst, lastMeas := PlanPoint{Overhead: -1, ReplayRuns: math.Inf(1)}, PlanPoint{Overhead: -1, ReplayRuns: math.Inf(1)}
	for i, pt := range merged {
		// A generation that did not reproduce has a budget-censored run
		// count (the paper's ∞), not a measurement of debugging time.
		if pt.Measured && pt.Plan.Fingerprint() == censored.Fingerprint() {
			t.Errorf("non-reproduced generation emitted as a measured frontier point: %+v", pt)
		}
		// A measured point beats the estimate for the same fingerprint.
		if pt.Plan.Fingerprint() == remeasured.Fingerprint() {
			sawRemeasured = true
			if !pt.Measured || pt.ReplayRuns != measuredRuns {
				t.Errorf("the estimate shadowed the measured point for %s: %+v", pt.Strategy, pt)
			}
		}
		last := &lastEst
		if pt.Measured {
			last = &lastMeas
		}
		if !(pt.Overhead > last.Overhead) || !(pt.ReplayRuns < last.ReplayRuns) {
			t.Errorf("merged frontier not strictly Pareto within its tier at %d: %+v", i, merged)
		}
		*last = pt
	}
	// Measured points are ground truth: estimates never displace them.
	if !sawRemeasured {
		t.Errorf("remeasured all-branches plan missing from the frontier: %+v", merged)
	}
}

// The store refuses to resolve a recording onto the wrong program: the
// reference envelope's program hash must match the retained plan's.
func TestPlanStoreWrongProgramRefused(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	warm := storeChainSession(t, dir)
	rec, _, err := warm.Record(ctx, nil)
	if err != nil || rec == nil {
		t.Fatalf("record: %v", err)
	}
	ref := filepath.Join(t.TempDir(), "bug.report")
	if err := rec.SaveRef(ref); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRecording(ref)
	if err != nil {
		t.Fatal(err)
	}
	loaded.ProgHash = strings.Repeat("ab", 16) // a different build's hash
	cold := storeChainSession(t, dir)
	if _, err := cold.Replay(ctx, loaded); err == nil {
		t.Fatal("replay resolved a recording stamped for a different program")
	}
}

// AutoBalance with a store persists every generation and its measured
// points; a cold session can resolve each generation by fingerprint.
func TestAutoBalancePersistsGenerations(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	warm := storeChainSession(t, dir, WithReplayBudget(500, 10*time.Second))
	tr, err := warm.AutoBalance(ctx, nil, BalanceOptions{MaxGenerations: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := warm.PlanStore()
	if err != nil || st == nil {
		t.Fatalf("PlanStore: %v", err)
	}
	for _, pt := range tr.Points {
		got, err := st.GetPlan(pt.Plan.Fingerprint())
		if err != nil {
			t.Fatalf("generation %d not retained: %v", pt.Generation, err)
		}
		if got.Generation != pt.Generation {
			t.Errorf("retained generation %d, want %d", got.Generation, pt.Generation)
		}
	}
	// Measured points key on the workload hash (satellite: renamed
	// sessions share one measured history), not the session's name.
	if _, err := st.Measured(tr.Points[0].Plan.ProgHash, "chain"); err != nil {
		t.Fatal(err)
	}
	pts, err := st.Measured(tr.Points[0].Plan.ProgHash, warm.WorkloadHash())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(tr.Points) {
		t.Errorf("store holds %d measured points, trajectory has %d", len(pts), len(tr.Points))
	}
	rep, err := st.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Damaged) != 0 {
		t.Errorf("scan reports damage on a healthy store: %+v", rep.Damaged)
	}
	if rep.MeasuredPoints != len(pts) {
		t.Errorf("scan counts %d measured points, want %d", rep.MeasuredPoints, len(pts))
	}
}
