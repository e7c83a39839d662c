package corpus

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"pathlog/internal/instrument"
	"pathlog/internal/lang"
	"pathlog/internal/replay"
	"pathlog/internal/world"
)

// Partition splits the corpus into at most n shards, round-robin over the
// signature-sorted members, so the assignment is deterministic and the
// shard loads stay within one report of each other. Empty shards are
// dropped (n larger than the member count yields one shard per member).
func (c *Corpus) Partition(n int) [][]*Report {
	if n < 1 {
		n = 1
	}
	if n > len(c.Reports) {
		n = len(c.Reports)
	}
	shards := make([][]*Report, n)
	for i, rep := range c.Reports {
		shards[i%n] = append(shards[i%n], rep)
	}
	return shards
}

// ReportRun is one report's replay outcome as a shard returns it: the
// search result numbers plus the plan-fingerprint-stamped profile the
// central merger verifies.
type ReportRun struct {
	Reproduced bool  `json:"reproduced"`
	TimedOut   bool  `json:"timed_out,omitempty"`
	Cancelled  bool  `json:"cancelled,omitempty"`
	Runs       int   `json:"runs"`
	WallMS     int64 `json:"wall_ms"`
	// Profile is the search's per-branch attribution, stamped with the
	// program hash, plan fingerprint and generation it was measured under.
	Profile *instrument.SearchProfile `json:"profile"`
}

// Runner replays one shard of the corpus. ReplayShard returns exactly one
// run per report, aligned with the input order.
type Runner interface {
	ReplayShard(ctx context.Context, reports []*Report) ([]ReportRun, error)
}

// InProcessRunner replays a shard through the replay engine in this
// process, one report at a time (shards themselves run concurrently). It is
// the one place a corpus replay builds its engines: the session's
// in-process corpus steps and every shard worker daemon run through it.
type InProcessRunner struct {
	Prog *lang.Program
	Spec *world.Spec
	Opts replay.Options
}

// ReplayShard implements Runner. When the context fires, it returns the runs
// completed so far (the interrupted report's included) with the context's
// error.
func (r *InProcessRunner) ReplayShard(ctx context.Context, reports []*Report) ([]ReportRun, error) {
	out := make([]ReportRun, len(reports))
	for i, rep := range reports {
		if rep.Rec == nil || rep.Rec.Plan == nil {
			return nil, fmt.Errorf("corpus: report %s carries no plan — resolve the corpus against a plan store before replaying", rep.Signature)
		}
		eng := replay.New(r.Prog, r.Spec, world.NewRegistry(r.Spec), rep.Rec, r.Opts)
		res := eng.Reproduce(ctx)
		out[i] = ReportRun{
			Reproduced: res.Reproduced,
			TimedOut:   res.TimedOut,
			Cancelled:  res.Cancelled,
			Runs:       res.Runs,
			WallMS:     res.Elapsed.Milliseconds(),
			Profile:    res.Profile,
		}
		if err := ctx.Err(); err != nil {
			return out[:i+1], err
		}
	}
	return out, nil
}

// ProtocolVersion is the shard worker protocol version. A worker refuses a
// request from a different version instead of guessing.
const ProtocolVersion = 1

// ShardIDFor derives a stable identity for one shard of a replay: a short
// hash over the member signatures in shard order. Partitions of one replay
// are disjoint and member signatures are unique within a corpus, so the ID
// uniquely names the shard — the merger uses it to collapse the duplicate
// deliveries work stealing can produce into exactly one merge.
func ShardIDFor(reports []*Report) string {
	h := sha256.New()
	io.WriteString(h, "pathlog-shard-v1\n")
	for _, rep := range reports {
		io.WriteString(h, rep.Signature)
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ShardRequest is the JSON object a shard worker daemon reads from a POST
// body: the named scenario (program + input space), the reports to replay
// in order, and the replay bounds. Reports travel inline as version-2
// envelope bodies, never as paths on the worker's filesystem. Envelopes
// must embed their plan; the parent resolves stamped-only references
// against its plan store and ships resolved copies, so workers never need
// store access.
type ShardRequest struct {
	Version  int    `json:"version"`
	Scenario string `json:"scenario"`
	// ShardID names the shard for duplicate-delivery dedupe and transcript
	// correlation; workers echo it back verbatim.
	ShardID string `json:"shard_id,omitempty"`
	// Envelopes carries the version-2 recording envelopes, one per report.
	Envelopes []json.RawMessage `json:"envelopes,omitempty"`
	MaxRuns   int               `json:"max_runs,omitempty"`
	BudgetMS  int64             `json:"budget_ms,omitempty"`
}

// ShardResponse is the JSON object a shard worker daemon returns: one run
// per requested report, in request order, plus the program hash the worker
// replayed on (the merger re-verifies every profile anyway; the hash makes
// a wrong-scenario mistake diagnosable from the transcript) and the
// request's shard ID echoed back.
type ShardResponse struct {
	Version  int         `json:"version"`
	ShardID  string      `json:"shard_id,omitempty"`
	ProgHash string      `json:"prog_hash,omitempty"`
	Results  []ReportRun `json:"results,omitempty"`
	Error    string      `json:"error,omitempty"`
}

// Merger is the central merge point of the sharded replay — the one new
// trust boundary corpus refinement introduces. Every incoming profile must
// carry the exact program hash, plan fingerprint and generation the merge
// expects; a foreign or stale profile (wrong program, wrong plan, wrong
// generation) is refused with both identities named, never silently
// blended into the attribution that will steer the next deployment.
type Merger struct {
	// ProgHash, PlanFingerprint and Generation pin what the merge accepts.
	ProgHash        string
	PlanFingerprint string
	Generation      int

	mu         sync.Mutex
	profile    *instrument.SearchProfile
	added      int
	seen       map[string]bool
	duplicates int
}

// NewMerger pins a merge point to one (program, plan, generation)
// identity.
func NewMerger(progHash, planFingerprint string, generation int) *Merger {
	return &Merger{
		ProgHash:        progHash,
		PlanFingerprint: planFingerprint,
		Generation:      generation,
		profile: &instrument.SearchProfile{
			ProgHash:        progHash,
			PlanFingerprint: planFingerprint,
			Generation:      generation,
		},
	}
}

// verifyRun checks one run's profile against the merge identity without
// touching merge state; the refusal messages name both identities.
func (m *Merger) verifyRun(run ReportRun) error {
	p := run.Profile
	if p == nil {
		return fmt.Errorf("corpus: shard run carries no search profile")
	}
	if p.ProgHash != m.ProgHash {
		return fmt.Errorf("corpus: refusing foreign profile: measured on program %s, this merge accepts only %s",
			p.ProgHash, m.ProgHash)
	}
	if p.PlanFingerprint != m.PlanFingerprint {
		return fmt.Errorf("corpus: refusing foreign profile: measured under plan %s, this merge accepts only plan %s",
			p.PlanFingerprint, m.PlanFingerprint)
	}
	if p.Generation != m.Generation {
		return fmt.Errorf("corpus: refusing stale profile: measured at generation %d of plan %s, this merge accepts only generation %d",
			p.Generation, m.PlanFingerprint, m.Generation)
	}
	return nil
}

// Add verifies one report's run against the merge identity and folds its
// profile in at the report's weight.
func (m *Merger) Add(run ReportRun, weight float64) error {
	if err := m.verifyRun(run); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.profile.MergeWeighted(run.Profile, weight); err != nil {
		return err
	}
	m.added++
	return nil
}

// AddShard merges one whole shard's runs (aligned with weights) exactly
// once per shard ID: work stealing can deliver the same shard from two
// workers, and the second delivery must be counted, not blended. Every run
// is verified against the merge identity before any state changes, so a
// refused shard leaves the merge untouched. Returns false with a nil error
// when the shard was already merged (the duplicate path); an empty shard ID
// disables dedupe for the call.
func (m *Merger) AddShard(shardID string, runs []ReportRun, weights []float64) (bool, error) {
	if len(runs) != len(weights) {
		return false, fmt.Errorf("corpus: shard %s: %d runs for %d weights", shardID, len(runs), len(weights))
	}
	for _, run := range runs {
		if err := m.verifyRun(run); err != nil {
			return false, err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if shardID != "" {
		if m.seen == nil {
			m.seen = make(map[string]bool)
		}
		if m.seen[shardID] {
			m.duplicates++
			return false, nil
		}
	}
	for i, run := range runs {
		if err := m.profile.MergeWeighted(run.Profile, weights[i]); err != nil {
			return false, err
		}
		m.added++
	}
	if shardID != "" {
		m.seen[shardID] = true
	}
	return true, nil
}

// DuplicateDeliveries reports how many already-merged shards were offered
// again — the count of stolen-shard duplicates the merge collapsed.
func (m *Merger) DuplicateDeliveries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.duplicates
}

// Profile returns the weighted merged profile (the merge identity with
// zero charges when nothing was added).
func (m *Merger) Profile() *instrument.SearchProfile {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.profile
}

// Outcome is a corpus replay's aggregate: the weighted merged profile and
// the per-member results, plus the weighted population statistics the
// balance loop converges on.
type Outcome struct {
	// Profile is the weighted merged attribution across the whole corpus.
	Profile *instrument.SearchProfile
	// Runs holds each member's replay outcome, aligned with
	// Corpus.Reports.
	Runs []ReportRun
	// MeanRuns and MeanWallMS are weighted means over members — the
	// corpus-mean debugging time the balance targets.
	MeanRuns   float64
	MeanWallMS float64
	// MaxRuns is the slowest member's run count.
	MaxRuns int
	// Reproduced counts members whose replay found the bug; Members is the
	// corpus size.
	Reproduced int
	Members    int
	// Shards echoes how many shards performed the replay.
	Shards int
}

// AllReproduced reports whether every member's replay found its bug.
func (o *Outcome) AllReproduced() bool { return o.Reproduced == o.Members }

// Replay fans the corpus out over shards and merges the results through a
// verifying Merger. Every member must carry a resolved plan, and all
// members must share one plan identity (fingerprint and generation) — a
// mixed-generation corpus is refused by name, because profiles from
// different plans must never blend. Shards run concurrently; the merge is
// performed in corpus order (the weighted merge is order-independent, the
// order just keeps transcripts deterministic).
func Replay(ctx context.Context, c *Corpus, shards int, runner Runner) (*Outcome, error) {
	if len(c.Reports) == 0 {
		return nil, fmt.Errorf("corpus: replay of an empty corpus")
	}
	var progHash, fp string
	generation := 0
	for _, rep := range c.Reports {
		if rep.Rec == nil || rep.Rec.Plan == nil {
			return nil, fmt.Errorf("corpus: report %s carries no plan — resolve the corpus against a plan store before replaying", rep.Signature)
		}
		rfp := rep.Rec.Plan.Fingerprint()
		if fp == "" {
			fp = rfp
			progHash = rep.Rec.Plan.ProgHash
			generation = rep.Rec.Plan.Generation
			continue
		}
		if rfp != fp {
			return nil, fmt.Errorf("corpus: mixed plans in one corpus: report %s was taken under plan %s (generation %d), corpus replays under plan %s (generation %d) — re-record stale reports under the deployed plan",
				rep.Signature, rfp, rep.Rec.Plan.Generation, fp, generation)
		}
	}
	parts := c.Partition(shards)
	results := make([][]ReportRun, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = runner.ReplayShard(ctx, parts[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("corpus: shard %d: %w", i, err)
		}
	}
	// Re-align shard results with the corpus's report order. Keyed by
	// member identity (the *Report), not by signature: a rebound corpus
	// can legitimately hold two members whose re-recorded evidence became
	// byte-identical, and signature keying would silently drop one run.
	byRep := make(map[*Report]ReportRun, len(c.Reports))
	for i, part := range parts {
		for j, rep := range part {
			byRep[rep] = results[i][j]
		}
	}
	// Merge whole shards under their shard IDs so a duplicate delivery
	// (possible once runners steal work) collapses structurally, then walk
	// the corpus order for the weighted population statistics. The merge is
	// performed in partition order; partitions are deterministic, so
	// transcripts stay reproducible.
	merger := NewMerger(progHash, fp, generation)
	out := &Outcome{Members: len(c.Reports), Shards: len(parts)}
	for i, part := range parts {
		weights := make([]float64, len(part))
		for j, rep := range part {
			weights[j] = rep.Weight
		}
		if _, err := merger.AddShard(ShardIDFor(part), results[i], weights); err != nil {
			return nil, fmt.Errorf("corpus: shard %d: %w", i, err)
		}
	}
	totalW := 0.0
	for _, rep := range c.Reports {
		run := byRep[rep]
		out.Runs = append(out.Runs, run)
		totalW += rep.Weight
		out.MeanRuns += rep.Weight * float64(run.Runs)
		out.MeanWallMS += rep.Weight * float64(run.WallMS)
		if run.Runs > out.MaxRuns {
			out.MaxRuns = run.Runs
		}
		if run.Reproduced {
			out.Reproduced++
		}
	}
	if totalW > 0 {
		out.MeanRuns /= totalW
		out.MeanWallMS /= totalW
	}
	out.Profile = merger.Profile()
	return out, nil
}
