package pathlog

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"pathlog/internal/corpus"
	"pathlog/internal/instrument"
	"pathlog/internal/obs"
	"pathlog/internal/store"
)

// This file closes the paper's titular loop at the Session level. The
// workflow the paper actually proposes is iterative: deploy a cheap partial
// plan, and when developer-site replay takes too long, selectively add
// instrumentation at the branches responsible and re-deploy; once replay is
// fast enough, drop the bits that do not pay for themselves. One step of
// that workflow is RefineCorpus (corpus.go), over a corpus of any size;
// the balance loop here iterates promote-then-demote over a corpus of
// reports — CorpusBalance over a population, AutoBalance over the one
// report it records — and returns the measured trajectory whose points
// the plan store keeps and Frontier folds back in as ground truth.

// SearchProfile attributes one replay search's cost per branch site; the
// replay engine produces it (ReplayResult.Profile) and the refinement
// step consumes it.
type SearchProfile = instrument.SearchProfile

// BranchCost is the search cost charged to one branch site in a
// SearchProfile.
type BranchCost = instrument.BranchCost

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
	s.PlanStore()
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
		if st, err := s.PlanStore(); err == nil && st != nil {
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

// DefaultMaxGenerations caps a balance loop that never meets its target:
// the paper's workflow converges in a handful of redeployments or not at
// all.
const DefaultMaxGenerations = 4

// BalanceOptions shape one balance loop (AutoBalance or CorpusBalance).
// The embedded CorpusOptions say where each generation's corpus replays
// and how many blowup branches a generation promotes.
type BalanceOptions struct {
	CorpusOptions
	// TargetReplayRuns, when > 0, is the replay budget the loop works
	// toward: a generation whose weighted corpus-mean search reproduces
	// every report within this many runs meets the target.
	TargetReplayRuns int
	// TargetReplayTime, when > 0, is the wall-clock form of the target,
	// compared at millisecond resolution; both set means both must hold.
	TargetReplayTime time.Duration
	// MaxGenerations caps the refinement steps — promotions and accepted
	// demotions alike — counted from the generation the loop starts at
	// (<= 0 selects DefaultMaxGenerations). The trajectory holds at most
	// MaxGenerations+1 points: the starting generation plus one per step.
	MaxGenerations int
	// OverheadCeiling, when > 0, stops the loop before deploying a promoted
	// plan whose estimated record overhead (bits/run, priced by the cost
	// model the pre-deployment analysis built) exceeds it — the user-site
	// half of the balance.
	OverheadCeiling float64
}

// validate refuses nonsensical targets before any work is done.
func (opts BalanceOptions) validate() error {
	if opts.TargetReplayRuns < 0 || opts.TargetReplayTime < 0 {
		return fmt.Errorf("pathlog: balance: negative replay target (runs %d, time %v)",
			opts.TargetReplayRuns, opts.TargetReplayTime)
	}
	if opts.OverheadCeiling < 0 {
		return fmt.Errorf("pathlog: balance: negative overhead ceiling %g", opts.OverheadCeiling)
	}
	return nil
}

// balancePhaseBuckets span 1µs to ~18 minutes of phase wall time.
var balancePhaseBuckets = obs.ExpBuckets(1000, 4, 16)

// observePhase lands one finished balance phase in the session observer's
// registry (when attached) as pathlog_balance_<phase>_ns. Phases: "record"
// (user-site deployment run over the workload or corpus), "replay"
// (developer-site search), "refine" (deriving and pricing the next
// generation's plan), "merge" (folding the generation's measured point and
// search profile into the plan store and trajectory).
func (s *Session) observePhase(phase string, start time.Time) {
	if reg := s.cfg.obs.Registry(); reg != nil {
		reg.Histogram("pathlog_balance_"+phase+"_ns", balancePhaseBuckets).
			Observe(float64(time.Since(start).Nanoseconds()))
	}
}

// BalancePoint is one generation of a balance trajectory: the deployed
// plan and what was measured under it over the generation's corpus —
// weighted means over the members, not estimates. An AutoBalance corpus
// holds one report of weight 1, so every mean is that report's own number.
type BalancePoint struct {
	// Generation is the plan's refinement generation (0 = the starting
	// strategy's plan).
	Generation int
	// Plan is the generation's deployed plan.
	Plan *Plan
	// MeanOverheadBits is the weighted mean of the bits each member's
	// user-site run logged under the plan — the measured record overhead.
	MeanOverheadBits float64
	// MeanReplayRuns, MeanReplayMS and MaxReplayRuns measure the
	// developer-site search over the population (weighted means; max over
	// members).
	MeanReplayRuns float64
	MeanReplayMS   float64
	MaxReplayRuns  int
	// Reproduced counts members whose replay found the bug; Members is
	// the corpus size.
	Reproduced int
	Members    int
	// Promoted and Demoted list the branch changes that produced this
	// generation (both empty for the starting generation).
	Promoted []BranchID
	Demoted  []BranchID
	// Corpus holds the generation's recordings, every member recorded
	// under Plan; Outcome is the corpus replay behind the numbers, whose
	// merged Profile the next generation is derived from.
	Corpus  *Corpus
	Outcome *CorpusOutcome
}

// BalanceTrajectory is a balance loop's outcome: the per-generation
// measured points in order, whether the loop met its target, and why it
// stopped.
type BalanceTrajectory struct {
	// Workload is the key the loop's measured store points are filed
	// under: the session's WorkloadHash for AutoBalance, the corpus
	// identity for CorpusBalance.
	Workload  string
	Points    []BalancePoint
	Converged bool
	// Reason is a one-line human explanation of why the loop stopped.
	Reason string
	// DemotionRefused names a demotion the loop measured and refused —
	// the branches involved and the measured regression — empty when no
	// demotion was refused.
	DemotionRefused string
}

// Final returns the last (deployed) generation's point, or nil for an
// empty trajectory.
func (tr *BalanceTrajectory) Final() *BalancePoint {
	if len(tr.Points) == 0 {
		return nil
	}
	return &tr.Points[len(tr.Points)-1]
}

// AutoBalance runs the balance loop (see CorpusBalance) on one workload:
// it records the user run (nil selects WithUserBytes) under the session's
// configured strategy and iterates over the one-report corpus that
// recording forms. The report weighs 1, so the loop's corpus means are
// that report's own numbers, and the measured points are filed under the
// session's WorkloadHash, where Frontier reads them back.
//
// A session whose chain already advanced (an earlier AutoBalance or
// RefineCorpus) resumes from the chain's latest generation instead of
// redeploying generation 0. The returned trajectory holds every
// generation's measured point even when the loop fails its target or the
// context cancels mid-loop; the error reports what stopped an unfinished
// loop.
func (s *Session) AutoBalance(ctx context.Context, user map[string][]byte, opts BalanceOptions) (*BalanceTrajectory, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	tr := &BalanceTrajectory{Workload: s.WorkloadHash()}
	plan, err := s.Plan(ctx)
	if err != nil {
		return tr, err
	}
	c, err := s.workloadCorpus(ctx, s.resumePlan(plan), user)
	if err != nil {
		return tr, err
	}
	return s.balance(ctx, c, tr.Workload, opts)
}

// CorpusBalance iterates the balance loop over a report population until
// the whole population replays within the target:
//
//   - promote: while the weighted corpus-mean replay misses the target,
//     refine the plan at the corpus-wide blowup branches, re-record every
//     member's input under the refined plan (members must carry
//     UserBytes; Corpus.AttachInput supplies them for ingested corpora),
//     and measure again;
//   - shrink: once the target is met, demote the branches the merged
//     profile proves redundant — but a demotion is accepted only when the
//     re-recorded, re-replayed corpus confirms it: every member still
//     reproduces, the target still holds, and the measured corpus-mean
//     overhead is strictly below the pre-demotion plan's. A demotion that
//     regresses any of those is refused by name (DemotionRefused), the
//     previous plan stays deployed, and its lineage never advances.
//
// The loop also stops at the MaxGenerations cap, when the next promoted
// plan would break the overhead ceiling, or when the profile promotes
// nothing new (a fixed point). With no target set, the target means
// reproducing every report within the session's replay budget. Measured
// points for every generation are appended to the plan store under the
// corpus identity as the workload key, and each generation's merged
// profile is retained as the evidence behind its promote and demote
// decisions.
func (s *Session) CorpusBalance(ctx context.Context, c *Corpus, opts BalanceOptions) (*BalanceTrajectory, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if c == nil || len(c.Reports) == 0 {
		return nil, fmt.Errorf("pathlog: CorpusBalance: empty corpus")
	}
	for _, rep := range c.Reports {
		if rep.UserBytes == nil {
			return nil, fmt.Errorf("pathlog: CorpusBalance: corpus report %s carries no user input to redeploy with — attach inputs (Corpus.AttachInput) or use RefineCorpus for a single evidence-based step",
				rep.Signature)
		}
	}
	return s.balance(ctx, c, c.Identity(), opts)
}

// balance is the one balance loop behind AutoBalance and CorpusBalance:
// replay the corpus under the plan it was recorded with, promote until the
// target is met, then demote while measurement confirms each shrink. Its
// measured points are filed under workload.
func (s *Session) balance(ctx context.Context, c *Corpus, workload string, opts BalanceOptions) (*BalanceTrajectory, error) {
	maxGen := opts.MaxGenerations
	if maxGen <= 0 {
		maxGen = DefaultMaxGenerations
	}
	copts := opts.CorpusOptions
	tr := &BalanceTrajectory{Workload: workload}

	// record appends an accepted generation's point to the trajectory and
	// the plan store.
	record := func(pt BalancePoint) error {
		start := time.Now()
		tr.Points = append(tr.Points, pt)
		if err := s.appendMeasured(workload, pt); err != nil {
			tr.Reason = "plan store write failed"
			return fmt.Errorf("pathlog: balance: persist measured point: %w", err)
		}
		if err := s.persistProfile(pt.Outcome.Profile); err != nil {
			tr.Reason = "plan store write failed"
			return fmt.Errorf("pathlog: balance: retain search profile: %w", err)
		}
		s.observePhase("merge", start)
		return nil
	}
	// accept makes a measured plan the chain's head.
	accept := func(base, next *Plan) error {
		s.recordLineage(base.Fingerprint(), next)
		if err := s.persistPlan(next); err != nil {
			tr.Reason = "plan store write failed"
			return fmt.Errorf("pathlog: balance: retain generation %d plan: %w", next.Generation, err)
		}
		return nil
	}

	start := time.Now()
	out, cur, plan, err := s.replayCorpus(ctx, c, copts)
	if err != nil {
		return tr, err
	}
	s.observePhase("replay", start)
	baseGen := plan.Generation
	if err := record(newBalancePoint(plan, cur, out, nil, nil)); err != nil {
		return tr, err
	}

	// Promote until the population meets the target.
	for !targetMet(out, opts) {
		if err := ctx.Err(); err != nil {
			tr.Reason = "context cancelled"
			return tr, err
		}
		if plan.Generation-baseGen >= maxGen {
			tr.Reason = fmt.Sprintf("generation cap (%d) reached without meeting the replay target", maxGen)
			return tr, nil
		}
		start = time.Now()
		promote := out.Profile.TopBlowup(opts.TopK, plan.Instrumented)
		strat, err := instrument.Refine(plan, out.Profile, promote, nil)
		if err != nil {
			return tr, err
		}
		refined, err := s.PlanWith(ctx, strat)
		if err != nil {
			return tr, err
		}
		s.observePhase("refine", start)
		if refined.Fingerprint() == plan.Fingerprint() {
			tr.Reason = fmt.Sprintf("fixed point at generation %d: the profile blames no promotable branch", plan.Generation)
			return tr, nil
		}
		if opts.OverheadCeiling > 0 && refined.EstimatedOverhead() > opts.OverheadCeiling {
			tr.Reason = fmt.Sprintf("overhead ceiling: generation %d would cost ~%.0f bits/run (ceiling %.0f)",
				refined.Generation, refined.EstimatedOverhead(), opts.OverheadCeiling)
			return tr, nil
		}
		// A plan the checks above reject was never deployed: only now does
		// the promoted plan become the chain's head.
		if err := accept(plan, refined); err != nil {
			return tr, err
		}
		next, nextOut, err := s.measure(ctx, refined, cur, copts)
		if err != nil {
			return tr, err
		}
		plan, cur, out = refined, next, nextOut
		if err := record(newBalancePoint(plan, cur, out, promote, nil)); err != nil {
			return tr, err
		}
	}
	tr.Converged = true
	tr.Reason = fmt.Sprintf("replay budget met at generation %d (weighted mean %.1f runs over %d report(s))",
		plan.Generation, out.MeanRuns, out.Members)

	// Shrink: demote proven-redundant branches while measurement confirms
	// the demotion.
	for plan.Generation-baseGen < maxGen {
		if err := ctx.Err(); err != nil {
			return tr, err
		}
		cands := out.Profile.Demotable(plan.Instrumented)
		if len(cands) == 0 {
			return tr, nil
		}
		start = time.Now()
		strat, err := instrument.Refine(plan, out.Profile, nil, cands)
		if err != nil {
			return tr, err
		}
		demoted, err := s.PlanWith(ctx, strat)
		if err != nil {
			return tr, err
		}
		s.observePhase("refine", start)
		trial, trialOut, err := s.measure(ctx, demoted, cur, copts)
		if err != nil {
			return tr, err
		}
		bits, trialBits := weightedMeanBits(cur), weightedMeanBits(trial)
		if !targetMet(trialOut, opts) || trialBits >= bits {
			tr.DemotionRefused = fmt.Sprintf(
				"demoting %s measured %d/%d reproduced, mean %.1f runs, mean %.1f bits (was %d/%d, %.1f runs, %.1f bits) — refused, plan %s stays deployed",
				branchList(cands), trialOut.Reproduced, trialOut.Members, trialOut.MeanRuns, trialBits,
				out.Reproduced, out.Members, out.MeanRuns, bits, plan.Fingerprint())
			tr.Reason += "; demotion refused after measurement"
			return tr, nil
		}
		// Measurement confirms the shrink: only now does the demoted plan
		// become the chain's head.
		if err := accept(plan, demoted); err != nil {
			return tr, err
		}
		plan, cur, out = demoted, trial, trialOut
		if err := record(newBalancePoint(plan, cur, out, nil, cands)); err != nil {
			return tr, err
		}
		tr.Reason = fmt.Sprintf("replay budget met at generation %d (weighted mean %.1f runs over %d report(s)); demotion shrank the plan to %.1f mean bits",
			plan.Generation, out.MeanRuns, out.Members, trialBits)
	}
	return tr, nil
}

// workloadCorpus records user (nil selects WithUserBytes) under plan — the
// user-site deployment run — and returns the one-report corpus it forms.
func (s *Session) workloadCorpus(ctx context.Context, plan *Plan, user map[string][]byte) (*Corpus, error) {
	start := time.Now()
	rec, _, err := s.RecordWith(ctx, plan, user)
	s.observePhase("record", start)
	if err != nil {
		return nil, err
	}
	if rec == nil {
		return nil, fmt.Errorf("pathlog: user run under plan %s (generation %d) produced no bug report (it did not crash, or the plan instruments nothing) — nothing to replay",
			plan.Strategy, plan.Generation)
	}
	return BuildCorpus([]CorpusMember{{Rec: rec, UserBytes: user}}, CorpusIngestOptions{})
}

// measure is the one measurement of a plan: it redeploys the plan over the
// population cur describes — every member's user input is recorded again
// under it — and replays the fresh recordings as a corpus under one
// balance.generation span. The balance loop measures each new generation
// with it, Frontier each swept plan.
func (s *Session) measure(ctx context.Context, plan *Plan, cur *Corpus, copts CorpusOptions) (*Corpus, *CorpusOutcome, error) {
	if !plan.Instruments() {
		return nil, nil, fmt.Errorf("pathlog: plan %s instruments nothing: an uninstrumented build reports no bug to replay", plan.Strategy)
	}
	start := time.Now()
	next, err := s.reRecordCorpus(ctx, cur, plan)
	if err != nil {
		return nil, nil, err
	}
	s.observePhase("record", start)
	gctx, span := s.cfg.obs.Tracer().StartSpan(ctx, "balance.generation")
	span.SetAttr("gen", fmt.Sprint(plan.Generation))
	start = time.Now()
	out, err := corpus.Replay(gctx, next, s.corpusShards(copts), s.corpusRunner(copts))
	span.End()
	s.observePhase("replay", start)
	return next, out, err
}

// newBalancePoint assembles one trajectory point from a generation's
// plan, corpus and corpus replay.
func newBalancePoint(plan *Plan, cur *Corpus, out *CorpusOutcome, promoted, demoted []BranchID) BalancePoint {
	return BalancePoint{
		Generation:       plan.Generation,
		Plan:             plan,
		MeanOverheadBits: weightedMeanBits(cur),
		MeanReplayRuns:   out.MeanRuns,
		MeanReplayMS:     out.MeanWallMS,
		MaxReplayRuns:    out.MaxRuns,
		Reproduced:       out.Reproduced,
		Members:          out.Members,
		Promoted:         promoted,
		Demoted:          demoted,
		Corpus:           cur,
		Outcome:          out,
	}
}

// targetMet checks a corpus replay against the loop's target: every
// member must reproduce, and the weighted means must meet the run and
// wall-clock targets when set. With no target set, reproducing the whole
// population within the replay budget is the bar.
func targetMet(out *CorpusOutcome, opts BalanceOptions) bool {
	if !out.AllReproduced() {
		return false
	}
	if opts.TargetReplayRuns > 0 && out.MeanRuns > float64(opts.TargetReplayRuns) {
		return false
	}
	if opts.TargetReplayTime > 0 && out.MeanWallMS > float64(opts.TargetReplayTime.Milliseconds()) {
		return false
	}
	return true
}

// appendMeasured persists one generation's measured point to the session's
// plan store (a no-op without WithPlanStore), keyed by (program hash,
// workload) — a content identity, not a name, so renamed sessions keep
// appending to one history. Generations that did not reproduce every
// report are stored too, as budget-censored history; Frontier skips them.
// A plan with no program hash cannot reach here: RecordWith already
// refused to deploy it through a store-backed session.
func (s *Session) appendMeasured(workload string, pt BalancePoint) error {
	st, err := s.PlanStore()
	if err != nil || st == nil {
		return err
	}
	return st.AppendMeasured(pt.Plan.ProgHash, workload, store.MeasuredPoint{
		Fingerprint:  pt.Plan.Fingerprint(),
		Strategy:     pt.Plan.Strategy,
		Generation:   pt.Generation,
		OverheadBits: int64(math.Round(pt.MeanOverheadBits)),
		ReplayRuns:   int(math.Round(pt.MeanReplayRuns)),
		ReplayMS:     int64(math.Round(pt.MeanReplayMS)),
		Reproduced:   pt.Reproduced == pt.Members,
	})
}

// balancePointJSON is the persisted shape of one trajectory point: the
// measured numbers and the plan identity, not the full artifacts.
type balancePointJSON struct {
	Generation   int     `json:"generation"`
	Strategy     string  `json:"strategy"`
	Fingerprint  string  `json:"fingerprint"`
	Parent       string  `json:"parent,omitempty"`
	Instrumented int     `json:"instrumented_locations"`
	MeanBits     float64 `json:"mean_overhead_bits"`
	MeanRuns     float64 `json:"mean_replay_runs"`
	MaxRuns      int     `json:"max_replay_runs"`
	MeanMS       float64 `json:"mean_replay_ms"`
	Reproduced   int     `json:"reproduced"`
	Members      int     `json:"members"`
	Promoted     []int   `json:"promoted,omitempty"`
	Demoted      []int   `json:"demoted,omitempty"`
}

type trajectoryJSON struct {
	Workload        string             `json:"workload"`
	Converged       bool               `json:"converged"`
	Reason          string             `json:"reason"`
	DemotionRefused string             `json:"demotion_refused,omitempty"`
	Points          []balancePointJSON `json:"points"`
}

// Save writes the trajectory's measured points to path as JSON — the
// artifact cmd/tune and the harness's adaptive and corpus experiments
// publish.
func (tr *BalanceTrajectory) Save(path string) error {
	enc := trajectoryJSON{
		Workload:        tr.Workload,
		Converged:       tr.Converged,
		Reason:          tr.Reason,
		DemotionRefused: tr.DemotionRefused,
	}
	for _, pt := range tr.Points {
		row := balancePointJSON{
			Generation:   pt.Generation,
			Strategy:     pt.Plan.Strategy,
			Fingerprint:  pt.Plan.Fingerprint(),
			Parent:       pt.Plan.Parent,
			Instrumented: pt.Plan.NumInstrumented(),
			MeanBits:     pt.MeanOverheadBits,
			MeanRuns:     pt.MeanReplayRuns,
			MaxRuns:      pt.MaxReplayRuns,
			MeanMS:       pt.MeanReplayMS,
			Reproduced:   pt.Reproduced,
			Members:      pt.Members,
		}
		for _, id := range pt.Promoted {
			row.Promoted = append(row.Promoted, int(id))
		}
		for _, id := range pt.Demoted {
			row.Demoted = append(row.Demoted, int(id))
		}
		enc.Points = append(enc.Points, row)
	}
	data, err := json.MarshalIndent(enc, "", "  ")
	if err != nil {
		return fmt.Errorf("pathlog: encode trajectory: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
