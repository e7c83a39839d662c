package pathlog

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"pathlog/internal/corpus"
	"pathlog/internal/fleet"
	"pathlog/internal/instrument"
	"pathlog/internal/lang"
	"pathlog/internal/replay"
	"pathlog/internal/store"
)

// This file turns the single-recording refinement loop into a corpus-driven
// one at the Session level. A deployed system receives a stream of bug
// reports; refining against only the latest crash lets one noisy report
// steer the whole plan, and replaying every report on one machine wastes
// the fact that reports are independent. ReplayCorpus shards the corpus
// and merges the weighted attribution through a verifying merge point;
// RefineCorpus derives the next plan generation from the merged profile —
// promoting the corpus-wide blowup branches AND demoting branches whose
// bits never constrained any member's search; CorpusBalance iterates the
// loop with measured acceptance, refusing a demotion that regresses what
// was actually measured.

// Corpus is a deduplicated, weighted bug-report population (see
// internal/corpus: frequency from crash-signature dedup, recency from a
// half-life decay over report mtimes).
type Corpus = corpus.Corpus

// CorpusReport is one weighted corpus member.
type CorpusReport = corpus.Report

// CorpusMember is one raw report offered to BuildCorpus.
type CorpusMember = corpus.Member

// CorpusIngestOptions shape corpus construction (recency half-life).
type CorpusIngestOptions = corpus.Options

// CorpusOutcome is a corpus replay's aggregate: the weighted merged
// profile and the per-member results.
type CorpusOutcome = corpus.Outcome

// CorpusRunner replays one shard of a corpus (in-process, or on shard
// worker daemons through internal/fleet; see internal/corpus).
type CorpusRunner = corpus.Runner

// Corpus constructors, re-exported from internal/corpus.
var (
	// IngestCorpus builds a corpus from a directory of recording
	// envelopes; file mtimes drive the recency weights.
	IngestCorpus = corpus.Ingest
	// BuildCorpus builds a corpus from in-memory members.
	BuildCorpus = corpus.Build
)

// CorpusOptions shape one corpus replay or refinement step.
type CorpusOptions struct {
	// Shards partitions the corpus into this many shards (<= 1 keeps one);
	// shards replay concurrently.
	Shards int
	// Runner replays each shard. Nil selects the in-process runner under
	// the session's replay options (WithReplayBudget, WithReplayOptions).
	Runner CorpusRunner
	// Workers fans shards out over remote shard worker daemons
	// (cmd/shardworkerd), addressed as host:port or http URLs. Ignored
	// when Runner is set; empty falls back to WithFleet's pool, then to
	// the in-process runner. With workers set and Shards unset, the corpus
	// is partitioned one shard per worker.
	Workers []string
	// TopK is the promotion width of a RefineCorpus step (<= 0 selects
	// DefaultRefineTopK).
	TopK int
}

// CorpusRefinement is one RefineCorpus step's result: the next plan
// generation and the evidence it was derived from.
type CorpusRefinement struct {
	// Plan is the refined generation: Base's branch set plus Promoted,
	// minus Demoted. Equal to Base (same fingerprint) at a fixed point.
	Plan *Plan
	// Base is the plan every corpus member was recorded under.
	Base *Plan
	// Outcome is the sharded corpus replay the refinement was derived
	// from.
	Outcome *CorpusOutcome
	// Promoted lists the corpus-wide blowup branches added to the plan;
	// Demoted lists the proven-redundant branches dropped from it.
	Promoted []BranchID
	Demoted  []BranchID
}

// promotedDemoted is implemented by the refinement strategies
// (instrument.Refine/Demote/RefineAndDemote).
type promotedDemoted interface {
	Promoted() []lang.BranchID
	Demoted() []lang.BranchID
}

// ReplayCorpus replays every corpus member under the plan the corpus was
// recorded with, fanned out over opts.Shards shards, and returns the
// weighted merged outcome. Every member is resolved against the plan
// store (stamped-only v3 reports need WithPlanStore) and validated
// against the session's program; all members must share one plan
// generation — a mixed or stale corpus is refused by name, exactly as a
// stale single recording is. The merge point verifies program hash, plan
// fingerprint and generation on every incoming profile before blending it
// into the attribution (the corpus's one new trust boundary).
func (s *Session) ReplayCorpus(ctx context.Context, c *Corpus, opts CorpusOptions) (*CorpusOutcome, error) {
	out, _, _, err := s.replayCorpus(ctx, c, opts)
	return out, err
}

// replayCorpus is ReplayCorpus returning also the resolved corpus and its
// common base plan, for the refinement paths.
func (s *Session) replayCorpus(ctx context.Context, c *Corpus, opts CorpusOptions) (*CorpusOutcome, *Corpus, *Plan, error) {
	if c == nil || len(c.Reports) == 0 {
		return nil, nil, nil, fmt.Errorf("pathlog: empty corpus")
	}
	// Open (and lineage-seed) the plan store before the staleness check,
	// as refineStep does.
	if _, err := s.planStore(); err != nil {
		return nil, nil, nil, err
	}
	resolved, err := c.Resolve(s.resolveRecording)
	if err != nil {
		return nil, nil, nil, err
	}
	var base *Plan
	for _, rep := range resolved.Reports {
		if err := s.validateRecording(rep.Rec); err != nil {
			return nil, nil, nil, fmt.Errorf("pathlog: corpus report %s: %w", rep.Signature, err)
		}
		if base == nil {
			base = rep.Rec.Plan
		}
	}
	if err := s.checkGenerationFresh(base, base.Fingerprint()); err != nil {
		return nil, nil, nil, err
	}
	// The sharded replay runs under one balance.generation span: the fleet
	// runner's shard/dispatch spans — and, across the HTTP hop, the
	// workers' spans — all parent under it, so a corpus step yields one
	// coherent tree per generation.
	gctx, span := s.cfg.obs.Tracer().StartSpan(ctx, "balance.generation")
	span.SetAttr("gen", fmt.Sprint(base.Generation))
	out, err := corpus.Replay(gctx, resolved, s.corpusShards(opts), s.corpusRunner(opts))
	span.End()
	if err != nil {
		return nil, nil, nil, err
	}
	s.emit("corpus", out.Members)
	return out, resolved, base, nil
}

// corpusReplayOptions assembles the replay bounds a corpus member is
// searched under: the session's replay options with no per-run progress
// callback (corpus progress is reported per member).
func (s *Session) corpusReplayOptions() replay.Options {
	opts := s.cfg.rep
	opts.OnRun = nil
	if opts.Obs == nil {
		opts.Obs = s.cfg.obs.Registry()
	}
	return opts
}

// RefineCorpus performs one corpus-driven refinement step: replay the
// whole corpus (sharded), merge the weighted attribution, and derive the
// next plan generation — the corpus-wide top blowup branches promoted into
// the plan and the proven-redundant branches (bits consumed, zero
// disagreements across every member) demoted out of it. The shared cost
// model is recalibrated with the merged profile before pricing, the
// refined generation carries lineage, and with a plan store configured
// both plans and the merged profile are retained.
//
// The demotion here is evidence-based, not measured: a corpus replay can
// prove a bit never constrained any member's search, but only a
// redeployment can measure the demoted plan. CorpusBalance closes that
// loop and refuses demotions whose measured replay regresses.
func (s *Session) RefineCorpus(ctx context.Context, c *Corpus, opts CorpusOptions) (*CorpusRefinement, error) {
	out, _, base, err := s.replayCorpus(ctx, c, opts)
	if err != nil {
		return nil, err
	}
	strat, err := instrument.RefineAndDemote(base, out.Profile, opts.TopK)
	if err != nil {
		return nil, err
	}
	plan, err := s.buildRefined(ctx, strat, out.Profile)
	if err != nil {
		return nil, err
	}
	ref := &CorpusRefinement{Plan: plan, Base: base, Outcome: out}
	if pd, ok := strat.(promotedDemoted); ok {
		ref.Promoted = pd.Promoted()
		ref.Demoted = pd.Demoted()
	}
	if err := s.persistPlan(base); err != nil {
		return nil, fmt.Errorf("pathlog: retain base plan: %w", err)
	}
	if err := s.persistProfile(out.Profile); err != nil {
		return nil, fmt.Errorf("pathlog: retain corpus profile: %w", err)
	}
	if plan.Fingerprint() != base.Fingerprint() {
		s.recordLineage(base.Fingerprint(), plan)
		if err := s.persistPlan(plan); err != nil {
			return nil, fmt.Errorf("pathlog: retain refined plan: %w", err)
		}
	}
	return ref, nil
}

// buildRefined calibrates the shared cost model with a merged corpus
// profile and prices the refinement strategy's plan.
func (s *Session) buildRefined(ctx context.Context, strat Strategy, profile *SearchProfile) (*Plan, error) {
	in, err := s.Analyze(ctx)
	if err != nil {
		return nil, err
	}
	s.planContext(in).Calibrate(profile)
	return s.PlanWith(ctx, strat)
}

// CorpusPoint is one generation of a CorpusBalance trajectory: the
// deployed plan and the weighted population measurements under it.
type CorpusPoint struct {
	// Generation is the plan's refinement generation.
	Generation int
	// Plan is the generation's deployed plan.
	Plan *Plan
	// MeanOverheadBits is the weighted mean of the bits each member's
	// user-site run logged under the plan — the corpus-mean record
	// overhead.
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
	// Outcome carries the full corpus replay behind the numbers.
	Outcome *CorpusOutcome
}

// CorpusTrajectory is a CorpusBalance outcome: the per-generation
// measured points, whether the loop met its target on the whole
// population, and why it stopped.
type CorpusTrajectory struct {
	// CorpusIdentity is the ingested corpus's identity hash; measured
	// store points for the whole loop key on it as their workload.
	CorpusIdentity string
	Points         []CorpusPoint
	Converged      bool
	// Reason is a one-line human explanation of why the loop stopped.
	Reason string
	// DemotionRefused names a demotion the loop measured and refused —
	// the branches involved and the measured regression — empty when no
	// demotion was refused.
	DemotionRefused string
}

// Final returns the last (deployed) generation's point, or nil for an
// empty trajectory.
func (tr *CorpusTrajectory) Final() *CorpusPoint {
	if len(tr.Points) == 0 {
		return nil
	}
	return &tr.Points[len(tr.Points)-1]
}

// CorpusBalance iterates the corpus-driven feedback loop until the whole
// report population replays within the target:
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
// Measured points for every generation are appended to the plan store
// under the corpus identity as the workload key, and each generation's
// merged profile is retained for cold calibration.
func (s *Session) CorpusBalance(ctx context.Context, c *Corpus, opts BalanceOptions) (*CorpusTrajectory, error) {
	if opts.TargetReplayRuns < 0 || opts.TargetReplayTime < 0 {
		return nil, fmt.Errorf("pathlog: CorpusBalance: negative replay target (runs %d, time %v)",
			opts.TargetReplayRuns, opts.TargetReplayTime)
	}
	if opts.OverheadCeiling < 0 {
		return nil, fmt.Errorf("pathlog: CorpusBalance: negative overhead ceiling %g", opts.OverheadCeiling)
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
	maxGen := opts.MaxGenerations
	if maxGen <= 0 {
		maxGen = DefaultMaxGenerations
	}
	copts := CorpusOptions{Shards: opts.Shards, Runner: opts.Runner, Workers: opts.Workers, TopK: opts.TopK}
	tr := &CorpusTrajectory{CorpusIdentity: c.Identity()}

	// Later generations replay outside replayCorpus (the corpus is already
	// resolved), so they open their own balance.generation span here.
	replayGen := func(gen int, cc *Corpus) (*CorpusOutcome, error) {
		gctx, span := s.cfg.obs.Tracer().StartSpan(ctx, "balance.generation")
		span.SetAttr("gen", fmt.Sprint(gen))
		defer span.End()
		start := time.Now()
		out, err := corpus.Replay(gctx, cc, s.corpusShards(copts), s.corpusRunner(copts))
		s.observePhase(opts.OnPhase, gen, "replay", start)
		if err != nil {
			return nil, err
		}
		s.emit("corpus", out.Members)
		return out, nil
	}

	phaseStart := time.Now()
	out, cur, plan, err := s.replayCorpus(ctx, c, copts)
	if err != nil {
		return tr, err
	}
	s.observePhase(opts.OnPhase, plan.Generation, "replay", phaseStart)
	baseGen := plan.Generation
	bits := weightedMeanBits(cur)
	record := func(pt CorpusPoint) error {
		start := time.Now()
		tr.Points = append(tr.Points, pt)
		if err := s.appendCorpusMeasured(tr.CorpusIdentity, pt); err != nil {
			tr.Reason = "plan store write failed"
			return fmt.Errorf("pathlog: CorpusBalance: persist measured point: %w", err)
		}
		if err := s.persistProfile(pt.Outcome.Profile); err != nil {
			tr.Reason = "plan store write failed"
			return fmt.Errorf("pathlog: CorpusBalance: retain corpus profile: %w", err)
		}
		s.observePhase(opts.OnPhase, pt.Generation, "merge", start)
		if opts.OnCorpusGeneration != nil {
			opts.OnCorpusGeneration(pt)
		}
		return nil
	}
	if err := record(corpusPoint(plan, out, bits, nil, nil)); err != nil {
		return tr, err
	}

	// Promote until the population meets the target.
	for !corpusTargetMet(out, opts) {
		if err := ctx.Err(); err != nil {
			tr.Reason = "context cancelled"
			return tr, err
		}
		if plan.Generation-baseGen >= maxGen {
			tr.Reason = fmt.Sprintf("generation cap (%d) reached without meeting the corpus replay target", maxGen)
			return tr, nil
		}
		phaseStart = time.Now()
		strat, err := instrument.Refine(plan, out.Profile, opts.TopK)
		if err != nil {
			return tr, err
		}
		refined, err := s.buildRefined(ctx, strat, out.Profile)
		if err != nil {
			return tr, err
		}
		s.observePhase(opts.OnPhase, plan.Generation, "refine", phaseStart)
		if refined.Fingerprint() == plan.Fingerprint() {
			tr.Reason = fmt.Sprintf("fixed point at generation %d: the corpus profile blames no promotable branch", plan.Generation)
			return tr, nil
		}
		if opts.OverheadCeiling > 0 && refined.EstimatedOverhead() > opts.OverheadCeiling {
			tr.Reason = fmt.Sprintf("overhead ceiling: generation %d would cost ~%.0f bits/run (ceiling %.0f)",
				refined.Generation, refined.EstimatedOverhead(), opts.OverheadCeiling)
			return tr, nil
		}
		s.recordLineage(plan.Fingerprint(), refined)
		if err := s.persistPlan(refined); err != nil {
			tr.Reason = "plan store write failed"
			return tr, fmt.Errorf("pathlog: CorpusBalance: retain refined plan: %w", err)
		}
		phaseStart = time.Now()
		next, err := s.reRecordCorpus(ctx, cur, refined)
		if err != nil {
			return tr, err
		}
		s.observePhase(opts.OnPhase, refined.Generation, "record", phaseStart)
		nextOut, err := replayGen(refined.Generation, next)
		if err != nil {
			return tr, err
		}
		var pd promotedDemoted
		if p, ok := strat.(promotedDemoted); ok {
			pd = p
		}
		plan, cur, out = refined, next, nextOut
		bits = weightedMeanBits(cur)
		pt := corpusPoint(plan, out, bits, nil, nil)
		if pd != nil {
			pt.Promoted = pd.Promoted()
		}
		if err := record(pt); err != nil {
			return tr, err
		}
	}
	tr.Converged = true
	tr.Reason = fmt.Sprintf("corpus replay target met at generation %d (weighted mean %.1f runs over %d reports)",
		plan.Generation, out.MeanRuns, out.Members)

	// Shrink: demote proven-redundant branches while measurement confirms
	// the demotion.
	for plan.Generation-baseGen < maxGen {
		if err := ctx.Err(); err != nil {
			return tr, err
		}
		cands := out.Profile.DemotableAt(plan.Instrumented, opts.DemotionRate)
		if len(cands) == 0 {
			return tr, nil
		}
		phaseStart = time.Now()
		strat, err := instrument.DemoteAt(plan, out.Profile, opts.DemotionRate)
		if err != nil {
			return tr, err
		}
		demoted, err := s.buildRefined(ctx, strat, out.Profile)
		if err != nil {
			return tr, err
		}
		s.observePhase(opts.OnPhase, plan.Generation, "refine", phaseStart)
		if demoted.Fingerprint() == plan.Fingerprint() {
			return tr, nil
		}
		phaseStart = time.Now()
		trial, err := s.reRecordCorpus(ctx, cur, demoted)
		if err != nil {
			return tr, err
		}
		s.observePhase(opts.OnPhase, demoted.Generation, "record", phaseStart)
		trialOut, err := replayGen(demoted.Generation, trial)
		if err != nil {
			return tr, err
		}
		trialBits := weightedMeanBits(trial)
		if !trialOut.AllReproduced() || !corpusTargetMet(trialOut, opts) || trialBits >= bits {
			tr.DemotionRefused = fmt.Sprintf(
				"demoting %s measured %d/%d reproduced, mean %.1f runs, mean %.1f bits (was %d/%d, %.1f runs, %.1f bits) — refused, plan %s stays deployed",
				branchList(cands), trialOut.Reproduced, trialOut.Members, trialOut.MeanRuns, trialBits,
				out.Reproduced, out.Members, out.MeanRuns, bits, plan.Fingerprint())
			tr.Reason += "; demotion refused after measurement"
			return tr, nil
		}
		// Measurement confirms the shrink: only now does the demoted plan
		// become the chain's head.
		s.recordLineage(plan.Fingerprint(), demoted)
		if err := s.persistPlan(demoted); err != nil {
			tr.Reason = "plan store write failed"
			return tr, fmt.Errorf("pathlog: CorpusBalance: retain demoted plan: %w", err)
		}
		plan, cur, out, bits = demoted, trial, trialOut, trialBits
		pt := corpusPoint(plan, out, bits, nil, cands)
		if err := record(pt); err != nil {
			return tr, err
		}
		tr.Reason = fmt.Sprintf("corpus replay target met at generation %d (weighted mean %.1f runs over %d reports); demotion shrank the plan to %.1f mean bits",
			plan.Generation, out.MeanRuns, out.Members, bits)
	}
	return tr, nil
}

// corpusRunner resolves the runner a balance step replays with: an
// explicit Runner wins, then a remote fleet (per-call Workers, falling
// back to the session's WithFleet pool), then the in-process runner. The
// fleet runner dispatches under the session's name — the scenario a
// stateless worker rebuilds the program from — with the same replay
// bounds the in-process runner would use.
func (s *Session) corpusRunner(opts CorpusOptions) CorpusRunner {
	if opts.Runner != nil {
		return opts.Runner
	}
	if workers := s.corpusWorkers(opts); len(workers) > 0 {
		r := fleet.NewRemoteRunner(workers, s.cfg.name, s.corpusReplayOptions())
		// The runner shares the session's observer: its counters land in the
		// same registry and its shard/dispatch spans parent under the balance
		// generation that dispatched them.
		r.Obs = s.cfg.obs
		return r
	}
	return &corpus.InProcessRunner{Prog: s.prog, Spec: s.spec, Opts: s.corpusReplayOptions()}
}

// corpusWorkers resolves the remote worker pool for one corpus step.
func (s *Session) corpusWorkers(opts CorpusOptions) []string {
	if opts.Runner != nil {
		return nil
	}
	if len(opts.Workers) > 0 {
		return opts.Workers
	}
	return s.cfg.fleetWorkers
}

// corpusShards resolves a step's shard count: an explicit Shards wins;
// with a remote pool and no explicit count, one shard per worker (the
// partition that keeps every worker busy).
func (s *Session) corpusShards(opts CorpusOptions) int {
	if opts.Shards > 1 {
		return opts.Shards
	}
	if workers := s.corpusWorkers(opts); len(workers) > 0 {
		return len(workers)
	}
	return opts.Shards
}

// reRecordCorpus redeploys a plan over the corpus population: every
// member's user input is recorded again under the plan, and the fresh
// recordings inherit the member weights (Corpus.Rebind). A member whose
// input no longer crashes is an error — the corpus and the plan no longer
// describe the same bugs.
func (s *Session) reRecordCorpus(ctx context.Context, cur *Corpus, plan *Plan) (*Corpus, error) {
	recs := make([]*replay.Recording, len(cur.Reports))
	for i, rep := range cur.Reports {
		rec, _, err := s.RecordWith(ctx, plan, rep.UserBytes)
		if err != nil {
			return nil, err
		}
		if rec == nil {
			return nil, fmt.Errorf("pathlog: corpus report %s no longer crashes under plan %s (generation %d)",
				rep.Signature, plan.Fingerprint(), plan.Generation)
		}
		recs[i] = rec
	}
	return cur.Rebind(recs)
}

// corpusPoint assembles one trajectory point from a generation's plan and
// corpus replay.
func corpusPoint(plan *Plan, out *CorpusOutcome, bits float64, promoted, demoted []BranchID) CorpusPoint {
	return CorpusPoint{
		Generation:       plan.Generation,
		Plan:             plan,
		MeanOverheadBits: bits,
		MeanReplayRuns:   out.MeanRuns,
		MeanReplayMS:     out.MeanWallMS,
		MaxReplayRuns:    out.MaxRuns,
		Reproduced:       out.Reproduced,
		Members:          out.Members,
		Promoted:         promoted,
		Demoted:          demoted,
		Outcome:          out,
	}
}

// weightedMeanBits is the corpus-mean record overhead: the weighted mean
// of the bits each member's recording logged.
func weightedMeanBits(c *Corpus) float64 {
	total, bits := 0.0, 0.0
	for _, rep := range c.Reports {
		if rep.Rec == nil || rep.Rec.Trace == nil {
			continue
		}
		total += rep.Weight
		bits += rep.Weight * float64(rep.Rec.Trace.Len())
	}
	if total == 0 {
		return 0
	}
	return bits / total
}

// corpusTargetMet checks a corpus replay against the loop's target: every
// member must reproduce, and the weighted means must meet the run and
// wall-clock targets when set. With no target set, reproducing the whole
// population within the replay budget is the bar.
func corpusTargetMet(out *CorpusOutcome, opts BalanceOptions) bool {
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

// appendCorpusMeasured persists one corpus generation's measured point,
// keyed by the corpus identity as the workload (the same mechanism as the
// per-session WorkloadHash: a content identity, not a name).
func (s *Session) appendCorpusMeasured(identity string, pt CorpusPoint) error {
	st, err := s.planStore()
	if err != nil || st == nil {
		return err
	}
	return st.AppendMeasured(pt.Plan.ProgHash, identity, store.MeasuredPoint{
		Fingerprint:  pt.Plan.Fingerprint(),
		Strategy:     pt.Plan.Strategy,
		Generation:   pt.Generation,
		OverheadBits: int64(math.Round(pt.MeanOverheadBits)),
		ReplayRuns:   int(math.Round(pt.MeanReplayRuns)),
		ReplayMS:     int64(math.Round(pt.MeanReplayMS)),
		Reproduced:   pt.Reproduced == pt.Members,
	})
}

// branchList renders a branch-ID set for error and refusal messages.
func branchList(ids []BranchID) string {
	if len(ids) == 0 {
		return "nothing"
	}
	out := ""
	for i, id := range ids {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("b%d", id)
	}
	return out
}

// corpusPointJSON is the persisted shape of one corpus trajectory point.
type corpusPointJSON struct {
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

type corpusTrajectoryJSON struct {
	Corpus          string            `json:"corpus"`
	Converged       bool              `json:"converged"`
	Reason          string            `json:"reason"`
	DemotionRefused string            `json:"demotion_refused,omitempty"`
	Points          []corpusPointJSON `json:"points"`
}

// Save writes the corpus trajectory's measured points to path as JSON —
// the artifact the harness's corpus experiment and CI publish.
func (tr *CorpusTrajectory) Save(path string) error {
	enc := corpusTrajectoryJSON{
		Corpus:          tr.CorpusIdentity,
		Converged:       tr.Converged,
		Reason:          tr.Reason,
		DemotionRefused: tr.DemotionRefused,
	}
	for _, pt := range tr.Points {
		row := corpusPointJSON{
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
		return fmt.Errorf("pathlog: encode corpus trajectory: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
