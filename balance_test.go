package pathlog

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pathlog/internal/apps"
	"pathlog/internal/static"
)

// uServerBalanceSession builds the acceptance-test session: uServer input
// scenario 3 (cookies and percent-escapes — the workload whose parser
// paths a low-coverage dynamic analysis misses hardest) under the plain
// Dynamic() strategy with a deliberately thin concolic budget, so
// generation 0 is a genuinely bad plan the loop must climb out of.
func uServerBalanceSession(t *testing.T, opts ...Option) *Session {
	t.Helper()
	s, err := apps.UServerScenario(3, 72)
	if err != nil {
		t.Fatal(err)
	}
	return SessionOf(s, append([]Option{
		WithAnalysisSpec(apps.UServerAnalysisScenario().Spec),
		WithDynamicBudget(3, 0),
		WithStaticOptions(static.Options{LibAsSymbolic: true}),
		WithSyscallLog(),
		WithStrategy(Dynamic()),
		WithReplayBudget(1500, 15*time.Second),
	}, opts...)...)
}

// TestAutoBalanceUServer is the acceptance check for the adaptive loop:
// starting from Dynamic() under low analysis coverage on the uServer,
// AutoBalance must converge within 4 generations to a plan that replays
// within the target and strictly faster than generation 0, while logging
// fewer bits per run than instrumenting all branches would — the paper's
// "new balance", reached by feedback instead of by full instrumentation.
func TestAutoBalanceUServer(t *testing.T) {
	ctx := context.Background()
	sess := uServerBalanceSession(t)

	const target = 200
	var seen []int
	tr, err := sess.AutoBalance(ctx, nil, BalanceOptions{
		TargetReplayRuns: target,
		MaxGenerations:   4,
		OnGeneration:     func(pt BalancePoint) { seen = append(seen, pt.Generation) },
	})
	if err != nil {
		t.Fatalf("AutoBalance: %v (trajectory so far: %+v)", err, tr.Points)
	}
	if !tr.Converged {
		t.Fatalf("did not converge: %s", tr.Reason)
	}
	if len(tr.Points) < 2 || len(tr.Points) > 5 {
		t.Fatalf("trajectory has %d generations, want 2..5 (gen0 must fail the target, convergence within 4 refinements)", len(tr.Points))
	}
	if len(seen) != len(tr.Points) {
		t.Errorf("OnGeneration saw %d points, trajectory has %d", len(seen), len(tr.Points))
	}

	gen0, final := tr.Points[0], *tr.Final()
	if gen0.Reproduced == gen0.Members && gen0.MeanReplayRuns <= target {
		t.Fatalf("generation 0 already met the target (%.0f runs) — the fixture no longer exercises refinement", gen0.MeanReplayRuns)
	}
	if final.Reproduced != final.Members {
		t.Fatalf("converged trajectory did not reproduce: %+v", final)
	}
	if final.MeanReplayRuns > target {
		t.Errorf("final generation used %.0f replay runs, target %d", final.MeanReplayRuns, target)
	}
	if final.MeanReplayRuns >= gen0.MeanReplayRuns {
		t.Errorf("replay runs did not drop: gen0 %.0f, final %.0f", gen0.MeanReplayRuns, final.MeanReplayRuns)
	}
	if final.Plan.Generation == 0 || final.Plan.Parent == "" {
		t.Errorf("final plan carries no lineage: generation %d parent %q",
			final.Plan.Generation, final.Plan.Parent)
	}

	// The record-side half of the balance: the refined plan must stay far
	// below full instrumentation.
	allPlan, err := sess.PlanWith(ctx, All())
	if err != nil {
		t.Fatal(err)
	}
	_, allStats, err := sess.RecordWith(ctx, allPlan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.MeanOverheadBits >= float64(allStats.TraceBits) {
		t.Errorf("refined plan logs %.0f bits/run, all-branches logs %d — no balance left",
			final.MeanOverheadBits, allStats.TraceBits)
	}

	// Refined plans are durable artifacts: Save/LoadPlan round-trips the
	// lineage.
	path := filepath.Join(t.TempDir(), "refined.plan.json")
	if err := final.Plan.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Generation != final.Plan.Generation || loaded.Parent != final.Plan.Parent {
		t.Errorf("lineage lost in round trip: generation %d parent %s",
			loaded.Generation, loaded.Parent)
	}
	if loaded.Fingerprint() != final.Plan.Fingerprint() {
		t.Error("fingerprint drifted through Save/LoadPlan")
	}

	// A stale-generation recording — generation 0's, after the session has
	// refined past it — is refused with a clear error, not silently
	// re-refined into a fork of the lineage.
	if _, err := sess.RefineCorpus(ctx, gen0.Corpus, CorpusOptions{}); err == nil ||
		!strings.Contains(err.Error(), "stale-generation") {
		t.Errorf("stale generation-0 recording accepted: %v", err)
	}

	// The trajectory serializes for CI artifacts.
	trajPath := filepath.Join(t.TempDir(), "trajectory.json")
	if err := tr.Save(trajPath); err != nil {
		t.Fatal(err)
	}

	// A second AutoBalance on the same session resumes from the chain's
	// latest generation — it must neither redeploy generation 0 nor trip
	// the staleness check it would cause.
	tr2, err := sess.AutoBalance(ctx, nil, BalanceOptions{
		TargetReplayRuns: target,
		MaxGenerations:   4,
	})
	if err != nil {
		t.Fatalf("second AutoBalance: %v", err)
	}
	if !tr2.Converged || tr2.Points[0].Generation != final.Plan.Generation {
		t.Errorf("second AutoBalance did not resume from generation %d: %+v (%s)",
			final.Plan.Generation, tr2.Points[0].Generation, tr2.Reason)
	}
}

// TestAutoBalanceDemotesWithMeasuredAcceptance pins the shrink half of
// the single-report loop: once the uServer fixture meets its target,
// AutoBalance demotes the logged branches whose bits never constrained the
// search, keeps the demotion only because re-measurement confirms it, and
// files exactly one measured store point per accepted generation.
func TestAutoBalanceDemotesWithMeasuredAcceptance(t *testing.T) {
	ctx := context.Background()
	sess := uServerBalanceSession(t, WithPlanStore(t.TempDir()))

	const target = 200
	tr, err := sess.AutoBalance(ctx, nil, BalanceOptions{TargetReplayRuns: target, MaxGenerations: 4})
	if err != nil {
		t.Fatalf("AutoBalance: %v", err)
	}
	if !tr.Converged {
		t.Fatalf("did not converge: %s", tr.Reason)
	}
	final := tr.Final()
	if len(final.Demoted) == 0 {
		t.Fatalf("final generation %d demoted nothing (%s; refused %q)", final.Generation, tr.Reason, tr.DemotionRefused)
	}
	// The last promote-only generation is the point before the first
	// demotion; generation 0 misses the target, so it is a refined one.
	var promoted *BalancePoint
	for i := range tr.Points {
		if len(tr.Points[i].Demoted) > 0 {
			break
		}
		promoted = &tr.Points[i]
	}
	if promoted == nil || promoted.Generation == 0 {
		t.Fatalf("no promote-only generation precedes the demotion: %+v", tr.Points)
	}
	if !(final.MeanOverheadBits < promoted.MeanOverheadBits) {
		t.Errorf("demoted generation logs %.0f bits, promote-only generation %d logged %.0f",
			final.MeanOverheadBits, promoted.Generation, promoted.MeanOverheadBits)
	}
	if final.Reproduced != final.Members || final.MeanReplayRuns > target {
		t.Errorf("demoted generation misses the target: %d/%d reproduced, %.0f runs",
			final.Reproduced, final.Members, final.MeanReplayRuns)
	}
	if final.Plan.Parent != tr.Points[len(tr.Points)-2].Plan.Fingerprint() {
		t.Errorf("demoted generation's parent %s is not the previous generation's plan", final.Plan.Parent)
	}

	st, err := sess.PlanStore()
	if err != nil {
		t.Fatal(err)
	}
	pts, err := st.Measured(final.Plan.ProgHash, sess.WorkloadHash())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(tr.Points) {
		t.Fatalf("store holds %d measured points for %d accepted generations", len(pts), len(tr.Points))
	}
	for i, mp := range pts {
		pt := tr.Points[i]
		if mp.Fingerprint != pt.Plan.Fingerprint() || mp.Generation != pt.Generation ||
			float64(mp.OverheadBits) != pt.MeanOverheadBits {
			t.Errorf("measured point %d = %+v, want generation %d plan %s with %.0f bits",
				i, mp, pt.Generation, pt.Plan.Fingerprint(), pt.MeanOverheadBits)
		}
	}
}

// TestAutoBalanceMatchesOneReportCorpusBalance: AutoBalance is the balance
// loop over a one-report corpus, so generation by generation it must
// deploy the same plan and measure the same bits and runs as CorpusBalance
// over a one-member corpus of the same generation-0 recording.
func TestAutoBalanceMatchesOneReportCorpusBalance(t *testing.T) {
	ctx := context.Background()
	opts := BalanceOptions{TargetReplayRuns: 200, MaxGenerations: 4}
	auto, err := uServerBalanceSession(t).AutoBalance(ctx, nil, opts)
	if err != nil {
		t.Fatalf("AutoBalance: %v", err)
	}

	sess := uServerBalanceSession(t)
	rec, _, err := sess.Record(ctx, nil)
	if err != nil || rec == nil {
		t.Fatalf("record: %v (%v)", err, rec)
	}
	c, err := BuildCorpus([]CorpusMember{{Rec: rec, UserBytes: sess.cfg.userBytes}}, CorpusIngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	corp, err := sess.CorpusBalance(ctx, c, opts)
	if err != nil {
		t.Fatalf("CorpusBalance: %v", err)
	}

	if len(auto.Points) != len(corp.Points) || auto.Converged != corp.Converged {
		t.Fatalf("AutoBalance ran %d generations (converged %v: %s), CorpusBalance %d (converged %v: %s)",
			len(auto.Points), auto.Converged, auto.Reason, len(corp.Points), corp.Converged, corp.Reason)
	}
	for i, a := range auto.Points {
		b := corp.Points[i]
		if a.Plan.Fingerprint() != b.Plan.Fingerprint() || a.MeanOverheadBits != b.MeanOverheadBits ||
			a.MeanReplayRuns != b.MeanReplayRuns || a.Reproduced != b.Reproduced {
			t.Errorf("generation %d: AutoBalance plan %s %.0f bits %.0f runs %d reproduced, CorpusBalance plan %s %.0f bits %.0f runs %d reproduced",
				i, a.Plan.Fingerprint(), a.MeanOverheadBits, a.MeanReplayRuns, a.Reproduced,
				b.Plan.Fingerprint(), b.MeanOverheadBits, b.MeanReplayRuns, b.Reproduced)
		}
	}
}

// fixedPointSrc crashes on a branch no input byte decides: under an
// empty plan the search reproduces in one run and blames nothing, and an
// empty plan logs nothing the profile could prove redundant.
const fixedPointSrc = `
int main() {
	char a[8];
	getarg(0, a, 8);
	int n = 3;
	if (n > 2) { crash(3); }
	return 0;
}
`

// oneReport wraps a single recording as the one-member corpus the refine
// step takes.
func oneReport(t *testing.T, rec *Recording) *Corpus {
	t.Helper()
	c, err := BuildCorpus([]CorpusMember{{Rec: rec}}, CorpusIngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRefineFixedPointDoesNotAdvanceLineage pins the fixed-point rule: a
// refinement that neither promotes nor demotes must not mark the
// still-current base plan stale.
func TestRefineFixedPointDoesNotAdvanceLineage(t *testing.T) {
	ctx := context.Background()
	prog, err := Compile(Unit{Name: "fixed.mc", Source: fixedPointSrc})
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(prog, &Spec{Args: []Stream{ArgStream(0, "xxxxxx", 8)}},
		WithUserBytes(map[string][]byte{"arg0": []byte("REPLAY")}),
		WithSyscallLog(), WithStrategy(Sampled(All(), 0)))
	rec, _, err := sess.Record(ctx, nil)
	if err != nil || rec == nil {
		t.Fatalf("record: %v (%v)", err, rec)
	}
	// Nothing is blamed and nothing is logged: the refined plan is the
	// base plan (fixed point)...
	ref, err := sess.RefineCorpus(ctx, oneReport(t, rec), CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Outcome.AllReproduced() {
		t.Fatalf("fixture drifted: not reproduced: %+v", ref.Outcome)
	}
	if len(ref.Promoted) != 0 || len(ref.Demoted) != 0 || ref.Plan.Fingerprint() != rec.Plan.Fingerprint() {
		t.Fatalf("fixture drifted: promoted %v demoted %v, plan %v", ref.Promoted, ref.Demoted, ref.Plan.IDs())
	}
	// ...and the base plan stays refinable: a repeat step must not be
	// refused as stale.
	if _, err := sess.RefineCorpus(ctx, oneReport(t, rec), CorpusOptions{}); err != nil {
		t.Errorf("fixed point marked the base plan stale: %v", err)
	}
}

// TestRefineSingleStep drives one manual loop iteration on the chain
// scenario: record, replay, refine — and checks the refined plan's
// estimate is priced under the calibrated (observed) cost model.
func TestRefineSingleStep(t *testing.T) {
	ctx := context.Background()
	sess := chainSession(t, WithStrategy(None()))
	// None() logs nothing, so force a minimal instrumented plan: syscall
	// logging only — every chain branch stays unlogged and the search must
	// discover the password byte by byte.
	plan, err := sess.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Instruments() {
		t.Fatalf("fixture drifted: None() instruments")
	}
	// Record under a syscall-only plan (None disables syscalls too, so use
	// an explicit empty-branch plan built from the session's context).
	plan, err = sess.PlanWith(ctx, Sampled(All(), 0))
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := sess.RecordWith(ctx, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		t.Fatal("no recording")
	}
	ref, err := sess.RefineCorpus(ctx, oneReport(t, rec), CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base := ref.Outcome.Runs[0]
	if !base.Reproduced || base.Profile == nil {
		t.Fatalf("replay failed: %+v", base)
	}
	refined := ref.Plan
	if refined.NumInstrumented() <= plan.NumInstrumented() {
		t.Errorf("refinement promoted nothing: %d -> %d branches",
			plan.NumInstrumented(), refined.NumInstrumented())
	}
	if refined.Generation != 1 || refined.Parent != plan.Fingerprint() {
		t.Errorf("lineage: generation %d parent %s", refined.Generation, refined.Parent)
	}
	// Calibration replaced priors with the observed fork rates, so the
	// refined plan's replay estimate must price the promoted branches as
	// covered — strictly below the base plan's estimate under the same
	// (calibrated) model.
	if refined.EstimatedReplayRuns() >= plan.EstimatedReplayRuns() {
		t.Errorf("refined replay estimate %.1f not below base %.1f",
			refined.EstimatedReplayRuns(), plan.EstimatedReplayRuns())
	}

	// The refined plan replays a fresh recording no worse than the base
	// did. (The chain is a degenerate case: its replay cost is the forced
	// serial chain, irreducible by instrumentation — the uServer acceptance
	// test above is where refinement visibly wins.)
	rec2, _, err := sess.RecordWith(ctx, refined, nil)
	if err != nil {
		t.Fatal(err)
	}
	res2 := mustReplay(t, ctx, sess, rec2)
	if !res2.Reproduced {
		t.Fatalf("refined plan did not reproduce: %+v", res2)
	}
	if res2.Runs > base.Runs {
		t.Errorf("refined replay took %d runs, base took %d", res2.Runs, base.Runs)
	}
}

// TestAutoBalanceOverheadCeilingDoesNotAdvanceChain pins the acceptance
// order: a refined plan the ceiling rejects was never deployed, so it must
// neither mark its base stale nor be what a later AutoBalance resumes on.
func TestAutoBalanceOverheadCeilingDoesNotAdvanceChain(t *testing.T) {
	ctx := context.Background()
	// An empty starting plan (syscall log only): every chain branch is
	// unlogged, so refinement wants to promote — but the ceiling forbids
	// any logging at all.
	sess := chainSession(t, WithStrategy(Sampled(All(), 0)))
	tr, err := sess.AutoBalance(ctx, nil, BalanceOptions{
		TargetReplayRuns: 1, // unreachable: the chain needs several runs
		OverheadCeiling:  0.5,
		MaxGenerations:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Converged || !strings.Contains(tr.Reason, "overhead ceiling") {
		t.Fatalf("expected an overhead-ceiling stop: %+v (%s)", tr.Points, tr.Reason)
	}
	if len(tr.Points) != 1 {
		t.Fatalf("rejected plan was deployed: %d generations", len(tr.Points))
	}
	gen0 := tr.Points[0]
	// The base plan is still the chain's head: refining its recording must
	// not be refused as stale...
	if _, err := sess.RefineCorpus(ctx, gen0.Corpus, CorpusOptions{}); err != nil {
		t.Errorf("ceiling reject marked the base plan stale: %v", err)
	}
	// ...but the step above DID accept the plan (no ceiling in a manual
	// step), so from here on the chain legitimately moves to generation 1.
	tr2, err := sess.AutoBalance(ctx, nil, BalanceOptions{OverheadCeiling: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Points[0].Generation != 1 {
		t.Errorf("resume generation %d after an explicit RefineCorpus, want 1", tr2.Points[0].Generation)
	}
}

func TestAutoBalanceRejectsNonsense(t *testing.T) {
	ctx := context.Background()
	sess := chainSession(t)
	if _, err := sess.AutoBalance(ctx, nil, BalanceOptions{TargetReplayRuns: -1}); err == nil {
		t.Error("negative run target accepted")
	}
	if _, err := sess.AutoBalance(ctx, nil, BalanceOptions{TargetReplayTime: -time.Second}); err == nil {
		t.Error("negative time target accepted")
	}
	if _, err := sess.AutoBalance(ctx, nil, BalanceOptions{OverheadCeiling: -3}); err == nil {
		t.Error("negative overhead ceiling accepted")
	}
	// A user run that does not crash cannot drive the loop.
	tr, err := sess.AutoBalance(ctx, map[string][]byte{"arg0": []byte("NOPASS")}, BalanceOptions{})
	if err == nil || !strings.Contains(err.Error(), "did not crash") {
		t.Errorf("crashless workload accepted: %v (%+v)", err, tr)
	}
}

func TestAutoBalanceConvergesImmediatelyWhenCheap(t *testing.T) {
	// The chain under its default strategy replays in a handful of runs:
	// with no explicit target, reproducing at all converges at generation 0
	// and no refinement happens.
	tr, err := chainSession(t).AutoBalance(context.Background(), nil, BalanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Converged || len(tr.Points) != 1 || tr.Points[0].Generation != 0 {
		t.Fatalf("expected immediate convergence: %+v (%s)", tr.Points, tr.Reason)
	}
}

func TestOptionGuardsClampAtApplyTime(t *testing.T) {
	prog, err := Compile(Unit{Name: "g.mc", Source: chainSrc})
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{Args: []Stream{ArgStream(0, "xxxxxx", 8)}}

	s := NewSession(prog, spec, WithReplayBudget(-10, -time.Second))
	if s.cfg.rep.MaxRuns != 0 || s.cfg.rep.TimeBudget != 0 {
		t.Errorf("WithReplayBudget negatives not clamped: %+v", s.cfg.rep)
	}
}
