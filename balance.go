package pathlog

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"pathlog/internal/instrument"
	"pathlog/internal/obs"
	"pathlog/internal/store"
)

// This file closes the paper's titular loop at the Session level. The
// workflow the paper actually proposes is iterative: deploy a cheap partial
// plan, and when developer-site replay takes too long, selectively add
// instrumentation at the branches responsible and re-deploy. Refine is one
// step of that loop; AutoBalance iterates record → replay → refine until
// the replay budget is met or the overhead ceiling is reached, returning
// the measured trajectory that Frontier can merge as ground truth next to
// its estimates.

// SearchProfile attributes one replay search's cost per branch site; the
// replay engine produces it (ReplayResult.Profile) and Refine consumes it.
type SearchProfile = instrument.SearchProfile

// BranchCost is the search cost charged to one branch site in a
// SearchProfile.
type BranchCost = instrument.BranchCost

// Refine performs one step of the adaptive loop: from a recording and the
// replay result measured under it, derive the next plan generation — the
// same branch set plus the top blowup branches the search profile blames
// for the search's length — priced under a cost model recalibrated with
// the observed per-branch rates. The returned plan carries lineage
// (Generation, Parent) and caches like any strategy-built plan.
//
// Refine refuses mismatches loudly: a recording that does not fit the
// session's program, a result with no profile, a profile measured under a
// different plan than the recording's, and a stale-generation recording —
// one taken under a plan this session or any earlier session over the
// same plan store has already refined past — are all errors, not silent
// rewinds of the loop. A stamped-only recording resolves its base plan
// from the plan store first, exactly as Replay does.
func (s *Session) Refine(ctx context.Context, rec *Recording, res *ReplayResult) (*Plan, error) {
	return s.RefineWith(ctx, rec, res, 0)
}

// RefineWith is Refine with an explicit promotion width (k <= 0 selects
// instrument.DefaultRefineTopK); AutoBalance threads its TopK through.
// With a plan store configured, both ends of the step are retained: the
// base plan the recording was taken under (resolved from the store when
// the recording is stamped-only) and the refined generation about to be
// deployed, so the store's lineage index stays complete.
func (s *Session) RefineWith(ctx context.Context, rec *Recording, res *ReplayResult, k int) (*Plan, error) {
	plan, base, err := s.refineStep(ctx, rec, res, k)
	if err != nil {
		return nil, err
	}
	if err := s.persistPlan(base); err != nil {
		return nil, fmt.Errorf("pathlog: retain base plan: %w", err)
	}
	if err := s.persistProfile(res.Profile); err != nil {
		return nil, fmt.Errorf("pathlog: retain search profile: %w", err)
	}
	// A fixed point (nothing promoted, identical branch set) is not a new
	// generation: advancing the lineage would mark the still-current base
	// plan stale and wedge every later refinement of it.
	if baseFP := base.Fingerprint(); plan.Fingerprint() != baseFP {
		s.recordLineage(baseFP, plan)
		if err := s.persistPlan(plan); err != nil {
			return nil, fmt.Errorf("pathlog: retain refined plan: %w", err)
		}
	}
	return plan, nil
}

// refineStep builds the refined plan without touching the lineage, so
// callers with their own acceptance checks (AutoBalance's overhead
// ceiling) can reject the plan before it becomes the chain's head. It
// returns the refined plan and the base plan it was derived from (the
// recording's embedded plan, or the retained plan a stamped-only
// recording resolves to).
func (s *Session) refineStep(ctx context.Context, rec *Recording, res *ReplayResult, k int) (*Plan, *Plan, error) {
	// Open (and lineage-seed) the plan store before the staleness check:
	// a chain an earlier session refined past must be refused even when
	// this session has not touched the store yet.
	if _, err := s.planStore(); err != nil {
		return nil, nil, err
	}
	// A stamped-only recording resolves its base plan from the store, the
	// same way Replay does.
	rec, err := s.resolveRecording(rec)
	if err != nil {
		return nil, nil, err
	}
	if err := s.validateRecording(rec); err != nil {
		return nil, nil, err
	}
	if res == nil || res.Profile == nil {
		return nil, nil, fmt.Errorf("pathlog: refine needs a replay result carrying a search profile")
	}
	base := rec.Plan
	baseFP := base.Fingerprint()
	if err := s.checkGenerationFresh(base, baseFP); err != nil {
		return nil, nil, err
	}
	strat, err := instrument.Refine(base, res.Profile, k)
	if err != nil {
		return nil, nil, err
	}
	in, err := s.Analyze(ctx)
	if err != nil {
		return nil, nil, err
	}
	// Fold the observed per-branch rates into the shared cost model before
	// pricing the refined plan: the refined generation's estimate is built
	// from measurement, not from the structural priors the base plan's was.
	s.planContext(in).Calibrate(res.Profile)
	plan, err := s.PlanWith(ctx, strat)
	if err != nil {
		return nil, nil, err
	}
	return plan, base, nil
}

// checkGenerationFresh refuses to refine a recording taken under a plan
// generation this session has already refined past.
func (s *Session) checkGenerationFresh(base *Plan, baseFP string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	root, ok := s.roots[baseFP]
	if !ok {
		root = baseFP
	}
	if latest, ok := s.latestGen[root]; ok && base.Generation < latest {
		return fmt.Errorf("pathlog: stale-generation recording: taken under generation %d plan %s, but this session has already refined that lineage to generation %d — record under the current plan and refine that recording",
			base.Generation, baseFP, latest)
	}
	return nil
}

// recordLineage files a refined plan under its chain's root and advances
// the chain's latest generation and plan.
func (s *Session) recordLineage(baseFP string, child *Plan) {
	s.mu.Lock()
	defer s.mu.Unlock()
	root, ok := s.roots[baseFP]
	if !ok {
		root = baseFP
		s.roots[baseFP] = root
	}
	s.roots[child.Fingerprint()] = root
	if child.Generation > s.latestGen[root] {
		s.latestGen[root] = child.Generation
		s.latestPlan[root] = child
		s.latestFP[root] = child.Fingerprint()
	}
}

// resumePlan returns the latest refined generation of the chain plan
// belongs to, or plan itself when the chain has not moved past it — so a
// second AutoBalance on the same session continues the loop instead of
// rewinding to generation 0 and tripping the staleness check. A chain
// advanced by an earlier session (known from the plan store's lineage
// index) resumes from the retained chain head fetched by fingerprint.
func (s *Session) resumePlan(plan *Plan) *Plan {
	// Opening the store seeds the lineage maps consulted below; an open
	// error is deliberately not fatal here — the caller's next store
	// operation (retaining the deployed plan) reports it loudly.
	s.planStore()
	s.mu.Lock()
	root, ok := s.roots[plan.Fingerprint()]
	if !ok {
		s.mu.Unlock()
		return plan
	}
	latest := s.latestPlan[root]
	latestGen := s.latestGen[root]
	latestFP := s.latestFP[root]
	s.mu.Unlock()
	if latest != nil && latest.Generation > plan.Generation {
		return latest
	}
	if latestGen > plan.Generation && latestFP != "" {
		// The chain head was built by an earlier session; fetch it from the
		// store. On a fetch failure the given plan stands, and the staleness
		// check will still refuse refining past generations loudly.
		if st, err := s.planStore(); err == nil && st != nil {
			if p, err := st.GetPlan(latestFP); err == nil {
				s.mu.Lock()
				s.latestPlan[root] = p
				s.mu.Unlock()
				return p
			}
		}
	}
	return plan
}

// DefaultMaxGenerations caps an AutoBalance loop that never meets its
// target: the paper's workflow converges in a handful of redeployments or
// not at all.
const DefaultMaxGenerations = 4

// BalanceOptions shape one AutoBalance loop.
type BalanceOptions struct {
	// TargetReplayRuns, when > 0, is the replay budget the loop works
	// toward: a generation whose search reproduces the bug within this many
	// runs converges the loop.
	TargetReplayRuns int
	// TargetReplayTime, when > 0, is the wall-clock form of the target;
	// both set means both must hold.
	TargetReplayTime time.Duration
	// MaxGenerations caps refinement steps (<= 0 selects
	// DefaultMaxGenerations). The trajectory holds at most
	// MaxGenerations+1 points: generation 0 plus one per refinement.
	MaxGenerations int
	// OverheadCeiling, when > 0, stops the loop before deploying a refined
	// plan whose estimated record overhead (bits/run, priced under the
	// calibrated cost model) exceeds it — the user-site half of the
	// balance.
	OverheadCeiling float64
	// TopK is the number of blowup branches promoted per generation
	// (<= 0 selects instrument.DefaultRefineTopK).
	TopK int
	// OnGeneration, when set, observes each generation's measured point as
	// soon as its replay finishes. Same contract as ProgressFunc: cheap,
	// no calls back into the Session.
	OnGeneration func(BalancePoint)
	// OnPhase, when set, observes each balance phase's wall time the
	// moment the phase finishes — record, replay, refine, merge. Same
	// contract as ProgressFunc. With WithObserver configured, the same
	// timings also land in the registry's
	// pathlog_balance_<phase>_ns histograms.
	OnPhase func(PhaseTiming)

	// The remaining fields apply only to CorpusBalance (AutoBalance
	// ignores them).

	// Shards partitions the corpus into this many concurrently-replayed
	// shards (<= 1 keeps one).
	Shards int
	// Runner replays each corpus shard; nil selects the in-process runner
	// under the session's replay budget.
	Runner CorpusRunner
	// Workers fans corpus shards out over remote shard worker daemons
	// (cmd/shardworkerd), addressed as host:port or http URLs, exactly as
	// CorpusOptions.Workers does. Ignored when Runner is set; empty keeps
	// the in-process runner. With workers set and Shards unset, the corpus
	// is partitioned one shard per worker.
	Workers []string
	// OnCorpusGeneration observes each corpus generation's measured point.
	// Same contract as ProgressFunc.
	OnCorpusGeneration func(CorpusPoint)
	// DemotionRate is the weighted demotion threshold: an instrumented
	// branch becomes a demotion candidate when its disagreement rate
	// (Disagreements over LoggedExecs) is at most this value
	// (instrument.DemotableAt). Zero — the default — keeps the strict
	// zero-disagreement rule. The measured-acceptance gate still applies
	// either way: a demoted plan whose replay regresses is refused by name.
	DemotionRate float64
}

// PhaseTiming is one timed phase of a balance generation — the loop's
// observability quantum. Phases: "record" (user-site deployment run over
// the workload or corpus), "replay" (developer-site search), "refine"
// (deriving and pricing the next generation's plan), "merge" (folding the
// generation's measured point and search profile into the plan store and
// trajectory).
type PhaseTiming struct {
	// Generation is the plan generation the phase ran under.
	Generation int
	// Phase names the phase: "record", "replay", "refine" or "merge".
	Phase string
	// Elapsed is the phase's wall time.
	Elapsed time.Duration
}

// balancePhaseBuckets span 1µs to ~18 minutes of phase wall time.
var balancePhaseBuckets = obs.ExpBuckets(1000, 4, 16)

// observePhase lands one finished balance phase in the session observer's
// registry (when attached) and the loop's OnPhase callback (when set).
func (s *Session) observePhase(on func(PhaseTiming), gen int, phase string, start time.Time) {
	d := time.Since(start)
	if reg := s.cfg.obs.Registry(); reg != nil {
		reg.Histogram("pathlog_balance_"+phase+"_ns", balancePhaseBuckets).
			Observe(float64(d.Nanoseconds()))
	}
	if on != nil {
		on(PhaseTiming{Generation: gen, Phase: phase, Elapsed: d})
	}
}

// BalancePoint is one generation of an AutoBalance trajectory: the
// deployed plan and what actually happened under it — measured logged
// bits, measured replay runs and wall time, not estimates.
type BalancePoint struct {
	// Generation is the plan's refinement generation (0 = the starting
	// strategy's plan).
	Generation int
	// Plan is the generation's deployed plan.
	Plan *Plan
	// OverheadBits is the number of bits the user-site record run logged
	// under the plan — the measured record overhead for this workload.
	OverheadBits int64
	// ReplayRuns and ReplayTime measure the developer-site search.
	ReplayRuns int
	ReplayTime time.Duration
	// Reproduced reports whether the search found the bug within budget.
	Reproduced bool
	// Recording and Result carry the full artifacts (Result.Profile is the
	// attribution the next generation was refined from).
	Recording *Recording
	Result    *ReplayResult
}

// BalanceTrajectory is an AutoBalance outcome: the per-generation measured
// points in order, whether the loop met its target, and why it stopped.
type BalanceTrajectory struct {
	Points    []BalancePoint
	Converged bool
	// Reason is a one-line human explanation of why the loop stopped.
	Reason string
}

// Final returns the last (best) generation's point, or nil for an empty
// trajectory.
func (tr *BalanceTrajectory) Final() *BalancePoint {
	if len(tr.Points) == 0 {
		return nil
	}
	return &tr.Points[len(tr.Points)-1]
}

// PlanPoints renders the trajectory as measured frontier points (Measured
// set, overhead and replay runs from the record and replay runs rather
// than the cost model), for MergeMeasured. Generations that did not
// reproduce are omitted: their run count is a budget-censored lower bound
// (the paper's ∞), not a measurement of debugging time.
func (tr *BalanceTrajectory) PlanPoints() []PlanPoint {
	out := make([]PlanPoint, 0, len(tr.Points))
	for _, pt := range tr.Points {
		if !pt.Reproduced {
			continue
		}
		out = append(out, PlanPoint{
			Strategy:   pt.Plan.Strategy,
			Plan:       pt.Plan,
			Overhead:   float64(pt.OverheadBits),
			ReplayRuns: float64(pt.ReplayRuns),
			Measured:   true,
		})
	}
	return out
}

// AutoBalance iterates the paper's feedback loop from the session's
// configured strategy: record the user run (nil selects WithUserBytes),
// replay the resulting bug report, and — while the replay budget is not
// met — refine the plan at the branches the search blames and go again.
//
// The loop stops when a generation reproduces within the target
// (Converged), when MaxGenerations refinements have been spent, when the
// next refined plan would break the overhead ceiling, or when the profile
// promotes nothing new (a fixed point). With no target set, convergence
// means reproducing at all within the session's replay budget — the
// paper's "replay took too long" workflow with the budget as the bar.
//
// The returned trajectory holds every generation's measured point even
// when the loop fails its target or the context cancels mid-loop; the
// error reports what stopped an unfinished loop. A session whose chain
// already advanced (an earlier AutoBalance or Refine) resumes from the
// chain's latest generation instead of redeploying generation 0.
func (s *Session) AutoBalance(ctx context.Context, user map[string][]byte, opts BalanceOptions) (*BalanceTrajectory, error) {
	if opts.TargetReplayRuns < 0 || opts.TargetReplayTime < 0 {
		return nil, fmt.Errorf("pathlog: AutoBalance: negative replay target (runs %d, time %v)",
			opts.TargetReplayRuns, opts.TargetReplayTime)
	}
	if opts.OverheadCeiling < 0 {
		return nil, fmt.Errorf("pathlog: AutoBalance: negative overhead ceiling %g", opts.OverheadCeiling)
	}
	maxGen := opts.MaxGenerations
	if maxGen <= 0 {
		maxGen = DefaultMaxGenerations
	}
	tr := &BalanceTrajectory{}
	plan, err := s.Plan(ctx)
	if err != nil {
		return tr, err
	}
	// A session that already refined this strategy's chain resumes from
	// the latest generation rather than redeploying generation 0.
	plan = s.resumePlan(plan)
	for {
		// Each generation's measurement (record + replay) runs under one
		// span, so the trajectory's wall time decomposes in the trace.
		gctx, span := s.cfg.obs.Tracer().StartSpan(ctx, "balance.generation")
		span.SetAttr("gen", fmt.Sprint(plan.Generation))
		phaseStart := time.Now()
		rec, stats, err := s.RecordWith(gctx, plan, user)
		s.observePhase(opts.OnPhase, plan.Generation, "record", phaseStart)
		if err != nil {
			span.End()
			return tr, err
		}
		if rec == nil {
			span.End()
			return tr, fmt.Errorf("pathlog: AutoBalance: user run did not crash under plan %s (generation %d) — nothing to replay",
				plan.Strategy, plan.Generation)
		}
		phaseStart = time.Now()
		res, err := s.Replay(gctx, rec)
		s.observePhase(opts.OnPhase, plan.Generation, "replay", phaseStart)
		span.End()
		if err != nil {
			return tr, err
		}
		pt := BalancePoint{
			Generation:   plan.Generation,
			Plan:         plan,
			OverheadBits: stats.TraceBits,
			ReplayRuns:   res.Runs,
			ReplayTime:   res.Elapsed,
			Reproduced:   res.Reproduced,
			Recording:    rec,
			Result:       res,
		}
		tr.Points = append(tr.Points, pt)
		s.emit("balance", len(tr.Points))
		phaseStart = time.Now()
		if err := s.appendMeasured(pt); err != nil {
			tr.Reason = "plan store write failed"
			return tr, fmt.Errorf("pathlog: AutoBalance: persist measured point: %w", err)
		}
		// Retain the generation's search profile so cold sessions can
		// CalibrateCosts from it before their first sweep.
		if err := s.persistProfile(res.Profile); err != nil {
			tr.Reason = "plan store write failed"
			return tr, fmt.Errorf("pathlog: AutoBalance: retain search profile: %w", err)
		}
		s.observePhase(opts.OnPhase, plan.Generation, "merge", phaseStart)
		if opts.OnGeneration != nil {
			opts.OnGeneration(pt)
		}
		if targetMet(res, opts) {
			tr.Converged = true
			tr.Reason = fmt.Sprintf("replay budget met at generation %d (%d runs in %s)",
				plan.Generation, res.Runs, res.Elapsed.Round(time.Millisecond))
			return tr, nil
		}
		if err := ctx.Err(); err != nil {
			tr.Reason = "context cancelled"
			return tr, err
		}
		if plan.Generation >= maxGen {
			tr.Reason = fmt.Sprintf("generation cap (%d) reached without meeting the replay target", maxGen)
			return tr, nil
		}
		// The refined plan only becomes the chain's head once it passes
		// every acceptance check: a plan the loop rejects here was never
		// deployed, must not mark its base stale, and must not be what a
		// later AutoBalance resumes from.
		phaseStart = time.Now()
		refined, base, err := s.refineStep(ctx, rec, res, opts.TopK)
		if err != nil {
			return tr, err
		}
		s.observePhase(opts.OnPhase, plan.Generation, "refine", phaseStart)
		if refined.Fingerprint() == plan.Fingerprint() {
			tr.Reason = fmt.Sprintf("fixed point at generation %d: the profile blames no promotable branch", plan.Generation)
			return tr, nil
		}
		if opts.OverheadCeiling > 0 && refined.EstimatedOverhead() > opts.OverheadCeiling {
			tr.Reason = fmt.Sprintf("overhead ceiling: generation %d would cost ~%.0f bits/run (ceiling %.0f)",
				refined.Generation, refined.EstimatedOverhead(), opts.OverheadCeiling)
			return tr, nil
		}
		s.recordLineage(base.Fingerprint(), refined)
		if err := s.persistPlan(refined); err != nil {
			tr.Reason = "plan store write failed"
			return tr, fmt.Errorf("pathlog: AutoBalance: retain refined plan: %w", err)
		}
		plan = refined
	}
}

// appendMeasured persists one AutoBalance generation's measured point to
// the session's plan store (a no-op without WithPlanStore). Points are
// keyed by (program hash, workload hash) — the WorkloadHash identity, so
// renamed sessions keep appending to one history; non-reproduced
// generations are stored too — as budget-censored history — but frontier
// merging skips them. A plan with no program hash cannot reach here:
// RecordWith already refused to deploy it through a store-backed session.
func (s *Session) appendMeasured(pt BalancePoint) error {
	st, err := s.planStore()
	if err != nil || st == nil {
		return err
	}
	return st.AppendMeasured(pt.Plan.ProgHash, s.WorkloadHash(), store.MeasuredPoint{
		Fingerprint:  pt.Plan.Fingerprint(),
		Strategy:     pt.Plan.Strategy,
		Generation:   pt.Generation,
		OverheadBits: pt.OverheadBits,
		ReplayRuns:   pt.ReplayRuns,
		ReplayMS:     pt.ReplayTime.Milliseconds(),
		Reproduced:   pt.Reproduced,
	})
}

// targetMet checks a generation's replay against the loop's target.
func targetMet(res *ReplayResult, opts BalanceOptions) bool {
	if !res.Reproduced {
		return false
	}
	if opts.TargetReplayRuns > 0 && res.Runs > opts.TargetReplayRuns {
		return false
	}
	if opts.TargetReplayTime > 0 && res.Elapsed > opts.TargetReplayTime {
		return false
	}
	return true
}

// balancePointJSON is the persisted shape of one trajectory point: the
// measured numbers and the plan identity, not the full artifacts.
type balancePointJSON struct {
	Generation   int     `json:"generation"`
	Strategy     string  `json:"strategy"`
	Fingerprint  string  `json:"fingerprint"`
	Parent       string  `json:"parent,omitempty"`
	Instrumented int     `json:"instrumented_locations"`
	OverheadBits int64   `json:"overhead_bits"`
	EstOverhead  float64 `json:"est_overhead_bits_per_run"`
	EstReplay    float64 `json:"est_replay_runs"`
	ReplayRuns   int     `json:"replay_runs"`
	ReplayMS     int64   `json:"replay_ms"`
	Reproduced   bool    `json:"reproduced"`
}

type trajectoryJSON struct {
	Converged bool               `json:"converged"`
	Reason    string             `json:"reason"`
	Points    []balancePointJSON `json:"points"`
}

// Save writes the trajectory's measured points to path as JSON — the
// artifact the harness's adaptive experiment and cmd/tune publish.
func (tr *BalanceTrajectory) Save(path string) error {
	enc := trajectoryJSON{Converged: tr.Converged, Reason: tr.Reason}
	for _, pt := range tr.Points {
		enc.Points = append(enc.Points, balancePointJSON{
			Generation:   pt.Generation,
			Strategy:     pt.Plan.Strategy,
			Fingerprint:  pt.Plan.Fingerprint(),
			Parent:       pt.Plan.Parent,
			Instrumented: pt.Plan.NumInstrumented(),
			OverheadBits: pt.OverheadBits,
			EstOverhead:  pt.Plan.EstimatedOverhead(),
			EstReplay:    pt.Plan.EstimatedReplayRuns(),
			ReplayRuns:   pt.ReplayRuns,
			ReplayMS:     pt.ReplayTime.Milliseconds(),
			Reproduced:   pt.Reproduced,
		})
	}
	data, err := json.MarshalIndent(enc, "", "  ")
	if err != nil {
		return fmt.Errorf("pathlog: encode trajectory: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
