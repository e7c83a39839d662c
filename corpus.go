package pathlog

import (
	"context"
	"fmt"

	"pathlog/internal/corpus"
	"pathlog/internal/fleet"
	"pathlog/internal/instrument"
	"pathlog/internal/replay"
)

// This file holds the corpus half of the balance loop. A deployed system
// receives a stream of bug reports; refining against only the latest crash
// lets one noisy report steer the whole plan, and replaying every report on
// one machine wastes the fact that reports are independent. ReplayCorpus
// shards the corpus and merges the weighted attribution through a
// verifying merge point; RefineCorpus derives the next plan generation from
// the merged profile — promoting the corpus-wide blowup branches AND
// demoting branches whose bits never constrained any member's search. The
// balance loop itself (balance.go) runs over a corpus: CorpusBalance over
// a report population, AutoBalance over a one-report corpus.

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
	// the session's replay budget (WithReplayBudget).
	Runner CorpusRunner
	// Workers fans shards out over remote shard worker daemons
	// (cmd/shardworkerd), addressed as host:port or http URLs — the one
	// way to name a worker pool. Ignored when Runner is set; empty keeps
	// the in-process runner. With workers set and Shards unset, the corpus
	// is partitioned one shard per worker. The session's name must be a
	// registered scenario name (apps.ScenarioByName): that name is how a
	// stateless worker rebuilds the program and input space. Recording
	// envelopes ship inline with each shard, so workers need neither a
	// shared filesystem nor a plan store, and every remote response flows
	// through the same verifying merge point as a local replay.
	Workers []string
	// TopK is the number of blowup branches a refinement step promotes —
	// RefineCorpus, or one balance generation (<= 0 selects
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
	// Open (and lineage-seed) the plan store before the staleness check:
	// a chain an earlier session refined past must be refused even when
	// this session has not touched the store yet.
	if _, err := s.PlanStore(); err != nil {
		return nil, nil, nil, err
	}
	resolved, err := c.Resolve(s.ResolveRecording)
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
	return out, resolved, base, nil
}

// RefineCorpus performs one refinement step, the only one the session
// offers: replay the whole corpus (sharded), merge the weighted
// attribution, and derive the next plan generation — the corpus-wide top
// blowup branches promoted into the plan and the proven-redundant branches
// (bits consumed, zero disagreements across every member) demoted out of
// it. One report is a one-member corpus:
// BuildCorpus([]CorpusMember{{Rec: rec}}, CorpusIngestOptions{}). The
// refined generation is priced by the session's analysis-built cost model
// like every other plan, it carries lineage, and with a plan store
// configured both plans and the merged profile are retained.
//
// RefineCorpus refuses mismatches loudly, as ReplayCorpus does: a member
// that does not fit the session's program, a mixed-plan corpus, and a
// stale-generation corpus — one recorded under a plan this session or an
// earlier session over the same plan store has already refined past — are
// errors, not silent rewinds of the loop. A fixed point (nothing promoted
// or demoted) returns the base branch set and does not advance the
// lineage.
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
	promote := out.Profile.TopBlowup(opts.TopK, base.Instrumented)
	demote := out.Profile.Demotable(base.Instrumented)
	strat, err := instrument.Refine(base, out.Profile, promote, demote)
	if err != nil {
		return nil, err
	}
	plan, err := s.PlanWith(ctx, strat)
	if err != nil {
		return nil, err
	}
	ref := &CorpusRefinement{Plan: plan, Base: base, Outcome: out, Promoted: promote, Demoted: demote}
	if err := s.persistPlan(base); err != nil {
		return nil, fmt.Errorf("pathlog: retain base plan: %w", err)
	}
	if err := s.persistProfile(out.Profile); err != nil {
		return nil, fmt.Errorf("pathlog: retain corpus profile: %w", err)
	}
	// A fixed point (identical branch set) is not a new generation:
	// advancing the lineage would mark the still-current base plan stale
	// and wedge every later refinement of it.
	if plan.Fingerprint() != base.Fingerprint() {
		s.recordLineage(base.Fingerprint(), plan)
		if err := s.persistPlan(plan); err != nil {
			return nil, fmt.Errorf("pathlog: retain refined plan: %w", err)
		}
	}
	return ref, nil
}

// corpusRunner resolves the runner a balance step replays with: an
// explicit Runner wins, then a remote fleet (per-call Workers), then the
// in-process runner. The fleet runner dispatches under the session's name
// — the scenario a stateless worker rebuilds the program from — with the
// same replay bounds the in-process runner would use.
func (s *Session) corpusRunner(opts CorpusOptions) CorpusRunner {
	if opts.Runner != nil {
		return opts.Runner
	}
	if len(opts.Workers) > 0 {
		r := fleet.NewRemoteRunner(opts.Workers, s.cfg.name, s.replayOptions())
		// The runner shares the session's observer: its counters land in the
		// same registry and its shard/dispatch spans parent under the balance
		// generation that dispatched them.
		r.Obs = s.cfg.obs
		return r
	}
	return &corpus.InProcessRunner{Prog: s.prog, Spec: s.spec, Opts: s.replayOptions()}
}

// corpusShards resolves a step's shard count: an explicit Shards wins;
// with a remote pool and no explicit count, one shard per worker (the
// partition that keeps every worker busy).
func (s *Session) corpusShards(opts CorpusOptions) int {
	if opts.Shards <= 1 && opts.Runner == nil && len(opts.Workers) > 0 {
		return len(opts.Workers)
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
