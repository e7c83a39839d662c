package pathlog

import (
	"context"
	"math"
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
func uServerBalanceSession(t *testing.T) *Session {
	t.Helper()
	s, err := apps.UServerScenario(3, 72)
	if err != nil {
		t.Fatal(err)
	}
	return SessionOf(s,
		WithAnalysisSpec(apps.UServerAnalysisScenario().Spec),
		WithDynamicBudget(3, 0),
		WithStaticOptions(static.Options{LibAsSymbolic: true}),
		WithSyscallLog(),
		WithStrategy(Dynamic()),
		WithReplayBudget(1500, 15*time.Second),
	)
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
	if gen0.Reproduced && gen0.ReplayRuns <= target {
		t.Fatalf("generation 0 already met the target (%d runs) — the fixture no longer exercises refinement", gen0.ReplayRuns)
	}
	if !final.Reproduced {
		t.Fatalf("converged trajectory did not reproduce: %+v", final)
	}
	if final.ReplayRuns > target {
		t.Errorf("final generation used %d replay runs, target %d", final.ReplayRuns, target)
	}
	if final.ReplayRuns >= gen0.ReplayRuns {
		t.Errorf("replay runs did not drop: gen0 %d, final %d", gen0.ReplayRuns, final.ReplayRuns)
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
	if final.OverheadBits >= allStats.TraceBits {
		t.Errorf("refined plan logs %d bits/run, all-branches logs %d — no balance left",
			final.OverheadBits, allStats.TraceBits)
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
	if _, err := sess.Refine(ctx, gen0.Recording, gen0.Result); err == nil ||
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

	// Generation 0 never reproduced, so its budget-censored run count is
	// not a measurement: the trajectory's frontier points must omit it.
	for _, pt := range tr.PlanPoints() {
		if pt.Plan.Fingerprint() == gen0.Plan.Fingerprint() {
			t.Errorf("non-reproduced generation 0 emitted as a measured frontier point")
		}
	}
}

// TestRefineFixedPointDoesNotAdvanceLineage pins the fixed-point rule: a
// refinement that promotes nothing (profile blames only instrumented
// branches) must not mark the still-current base plan stale.
func TestRefineFixedPointDoesNotAdvanceLineage(t *testing.T) {
	ctx := context.Background()
	sess := chainSession(t, WithMethod(MethodAll))
	rec, _, err := sess.Record(ctx, nil)
	if err != nil || rec == nil {
		t.Fatalf("record: %v (%v)", err, rec)
	}
	res := mustReplay(t, ctx, sess, rec)
	if !res.Reproduced {
		t.Fatalf("not reproduced: %+v", res)
	}
	// Full instrumentation leaves nothing to promote: the refined plan is
	// the base plan (fixed point)...
	p1, err := sess.Refine(ctx, rec, res)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Fingerprint() != rec.Plan.Fingerprint() {
		t.Fatalf("all-branches plan refined into something else: %v", p1.IDs())
	}
	// ...and the base plan stays refinable: a repeat Refine must not be
	// refused as stale.
	if _, err := sess.Refine(ctx, rec, res); err != nil {
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
	res := mustReplay(t, ctx, sess, rec)
	if !res.Reproduced || res.Profile == nil {
		t.Fatalf("replay failed: %+v", res)
	}
	refined, err := sess.Refine(ctx, rec, res)
	if err != nil {
		t.Fatal(err)
	}
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
	if res2.Runs > res.Runs {
		t.Errorf("refined replay took %d runs, base took %d", res2.Runs, res.Runs)
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
	if _, err := sess.Refine(ctx, gen0.Recording, gen0.Result); err != nil {
		t.Errorf("ceiling reject marked the base plan stale: %v", err)
	}
	// ...but the Refine above DID accept the plan (no ceiling in a manual
	// step), so from here on the chain legitimately moves to generation 1.
	tr2, err := sess.AutoBalance(ctx, nil, BalanceOptions{OverheadCeiling: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Points[0].Generation != 1 {
		t.Errorf("resume generation %d after explicit Refine, want 1", tr2.Points[0].Generation)
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

	s := NewSession(prog, spec, WithReplayWorkers(-3))
	if s.cfg.workers != 1 {
		t.Errorf("WithReplayWorkers(-3) left %d, want clamp to 1", s.cfg.workers)
	}
	s = NewSession(prog, spec, WithReplayWorkers(0))
	if s.cfg.workers != 1 {
		t.Errorf("WithReplayWorkers(0) left %d, want clamp to 1", s.cfg.workers)
	}
	s = NewSession(prog, spec, WithReplayBudget(-10, -time.Second))
	if s.cfg.rep.MaxRuns != 0 || s.cfg.rep.TimeBudget != 0 {
		t.Errorf("WithReplayBudget negatives not clamped: %+v", s.cfg.rep)
	}
	s = NewSession(prog, spec, WithReplayOptions(ReplayOptions{
		MaxRuns: -1, MaxPending: -7, TimeBudget: -time.Minute, MaxStepsPerRun: -9,
	}))
	r := s.cfg.rep
	if r.MaxRuns != 0 || r.MaxPending != 0 || r.TimeBudget != 0 || r.MaxStepsPerRun != 0 {
		t.Errorf("WithReplayOptions negatives not clamped: %+v", r)
	}
}

func TestMergeMeasuredFrontier(t *testing.T) {
	ctx := context.Background()
	sess := chainSession(t)
	est, err := sess.Frontier(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sess.AutoBalance(ctx, nil, BalanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	merged := MergeMeasured(est, tr)
	if len(merged) == 0 {
		t.Fatal("empty merged frontier")
	}
	// Strict Pareto holds per tier: replay runs strictly decrease along the
	// estimated points and along the measured points separately (a measured
	// ground-truth point may sit above the estimated curve — that gap is
	// the drift the store renders).
	foundMeasured := false
	lastEst, lastMeas := PlanPoint{Overhead: -1, ReplayRuns: math.Inf(1)}, PlanPoint{Overhead: -1, ReplayRuns: math.Inf(1)}
	for i, pt := range merged {
		last := &lastEst
		if pt.Measured {
			foundMeasured = true
			last = &lastMeas
		}
		if !(pt.Overhead > last.Overhead) || !(pt.ReplayRuns < last.ReplayRuns) {
			t.Errorf("merged frontier not strictly Pareto within its tier at %d: %+v", i, merged)
		}
		*last = pt
	}
	// Measured points are ground truth: estimates can never displace them,
	// so the trajectory's reproduced generation must survive the merge.
	if !foundMeasured && len(tr.PlanPoints()) > 0 {
		t.Errorf("measured trajectory points %v missing from merged frontier %+v", tr.PlanPoints(), merged)
	}
	// Where the same plan appears measured and estimated, the measured
	// coordinates win.
	byFP := map[string]PlanPoint{}
	for _, pt := range tr.PlanPoints() {
		byFP[pt.Plan.Fingerprint()] = pt
	}
	for _, pt := range merged {
		if m, ok := byFP[pt.Plan.Fingerprint()]; ok {
			if !pt.Measured || pt.Overhead != m.Overhead || pt.ReplayRuns != m.ReplayRuns {
				t.Errorf("estimated point shadowed the measured one: %+v vs %+v", pt, m)
			}
		}
	}
}
