package instrument

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"time"

	"pathlog/internal/lang"
	"pathlog/internal/solver"
)

// A SearchProfile attributes the cost of one replay search to the branch
// sites that caused it. It is the observational half of the paper's
// feedback loop: the cost model prices plans *before* deployment from
// analysis-time hit counts, and the profile shows *after* a developer-site
// search where the fan-out actually happened. TopBlowup and Demotable read
// it to decide which branches the next plan generation promotes and
// demotes; the cost model is never re-priced from it.
//
// The profile lives in this package, not in internal/replay, because it is
// planner input: replay produces it (Result.Profile), Refine consumes it,
// and putting it next to the plan keeps the dependency arrow pointing the
// way it already does (replay imports instrument).
type SearchProfile struct {
	// ProgHash and PlanFingerprint identify what was searched: the program
	// and the plan of the recording the search ran under. Refine refuses a
	// profile whose fingerprint disagrees with the plan it is refining.
	ProgHash        string `json:"prog_hash,omitempty"`
	PlanFingerprint string `json:"plan_fingerprint,omitempty"`
	// Generation echoes the searched plan's refinement generation.
	Generation int `json:"generation,omitempty"`
	// Runs is the number of completed search runs the profile aggregates
	// over (the denominator for per-run rates). Aborts counts the runs that
	// ended without reproducing; Reproduced reports the search outcome.
	Runs       int  `json:"runs"`
	Aborts     int  `json:"aborts"`
	Reproduced bool `json:"reproduced"`
	// Solver aggregates the search's solver counters.
	Solver solver.Stats `json:"solver"`
	// Branches holds the per-site attribution. Keys are branch IDs that
	// queued at least one pending set: uninstrumented symbolic branches
	// (case-1 forks, the refinable blowup) and instrumented branches where a
	// run first contradicted the log (§3.1 case 2b), which own the forced
	// fallback and the followed run's whole-path set.
	Branches map[lang.BranchID]*BranchCost `json:"branches"`
}

// BranchCost is the search cost charged to one branch site.
type BranchCost struct {
	// Forks counts case-1 pending alternatives queued at this branch: each
	// is an uninstrumented symbolic execution whose other direction the
	// search may have to try. Case-2b fallback and whole-path sets are not
	// forks.
	Forks int64 `json:"forks"`
	// AbortedRuns counts completed runs, seeded from a pending set that
	// originated at this branch, that ended without reproducing the bug.
	AbortedRuns int64 `json:"aborted_runs"`
	// SolverCalls and SolverTime charge the constraint solving spent on
	// pending sets originating at this branch (including unsat sets that
	// never became runs).
	SolverCalls int64         `json:"solver_calls"`
	SolverTime  time.Duration `json:"solver_time_ns"`
	// LoggedExecs counts replay executions of this instrumented branch that
	// consumed a log bit (§3.1 cases 2 and 3). Zero means the search never
	// even reached the branch under logging — absence of evidence, so the
	// demotion rule requires it to be positive.
	LoggedExecs int64 `json:"logged_execs,omitempty"`
	// Disagreements counts log bits at this branch that contradicted the
	// run's own direction: case-2b divergences the run then followed, and
	// case-3b mismatches. A disagreement is exactly the moment the branch's
	// bit constrained the search; a branch whose bits were consumed but
	// never once disagreed (corpus-wide) is redundant at replay time and
	// becomes a demotion candidate (Demotable).
	Disagreements int64 `json:"disagreements,omitempty"`
}

// add merges o into c at weight w. Run-cost counters (forks, runs, solver
// effort) scale by the weight with round-half-up, but a nonzero charge
// never scales to silence — a branch the search paid for stays attributed
// however small its report's weight. Evidence counters (LoggedExecs,
// Disagreements) merge unscaled: they gate demotion by presence or
// absence, and presence evidence does not shrink with recency.
func (c *BranchCost) add(o *BranchCost, w float64) {
	c.Forks += scaleCount(o.Forks, w)
	c.AbortedRuns += scaleCount(o.AbortedRuns, w)
	c.SolverCalls += scaleCount(o.SolverCalls, w)
	c.SolverTime += time.Duration(scaleCount(int64(o.SolverTime), w))
	c.LoggedExecs += o.LoggedExecs
	c.Disagreements += o.Disagreements
}

// scaleCount scales one run-cost counter by a merge weight, rounding half
// up, with a floor of 1 for any nonzero input so down-weighting can shrink
// a charge but never erase it.
func scaleCount(v int64, w float64) int64 {
	if v == 0 || w == 1 {
		return v
	}
	s := int64(math.Round(float64(v) * w))
	if s < 1 {
		return 1
	}
	return s
}

// blowup is the branch's responsibility for search length, in runs. Runs
// are the paper's unit of debugging time, so aborted runs lead;
// forks and solver calls break ties (cost the search paid even when the
// resulting sets were unsat or unexplored).
func (c *BranchCost) blowup() (runs, forks, solves int64) {
	return c.AbortedRuns, c.Forks, c.SolverCalls
}

// Branch returns the cost entry for id, or a zero entry if the search
// never charged it.
func (p *SearchProfile) Branch(id lang.BranchID) BranchCost {
	if c, ok := p.Branches[id]; ok {
		return *c
	}
	return BranchCost{}
}

// Merge folds another profile (e.g. from replaying a second recording under
// the same plan) into p. Identity fields must agree — Merge refuses to mix
// profiles from different plans — and an accumulator that has no identity
// yet (a zero value) adopts the source's, so the refusal also protects
// chains of merges.
func (p *SearchProfile) Merge(o *SearchProfile) error {
	return p.MergeWeighted(o, 1)
}

// MergeWeighted folds another profile into p at a report weight: a corpus
// merge charges each recording's search cost in proportion to how much that
// report should steer refinement (frequency × recency; see
// internal/corpus). Weight 1 is exactly Merge. Run-cost counters scale with
// round-half-up and a floor of 1 for nonzero charges; evidence counters
// (LoggedExecs, Disagreements) merge unscaled — see BranchCost.add.
// Scaling each source independently keeps the result identical however the
// sources are grouped into shards. Weights must be positive and finite.
func (p *SearchProfile) MergeWeighted(o *SearchProfile, weight float64) error {
	if o == nil {
		return nil
	}
	if weight <= 0 || math.IsInf(weight, 0) || math.IsNaN(weight) {
		return fmt.Errorf("instrument: merge weight %g is not a positive finite number", weight)
	}
	if p.PlanFingerprint != "" && o.PlanFingerprint != "" && p.PlanFingerprint != o.PlanFingerprint {
		return fmt.Errorf("instrument: cannot merge search profiles from different plans (%s vs %s)",
			p.PlanFingerprint, o.PlanFingerprint)
	}
	if p.PlanFingerprint == "" {
		p.PlanFingerprint = o.PlanFingerprint
		p.Generation = o.Generation
	}
	if p.ProgHash == "" {
		p.ProgHash = o.ProgHash
	}
	// Runs scale with the same rule as the per-branch counters, so per-run
	// rates (forks over runs) stay weighted averages of the sources' rates.
	p.Runs += int(scaleCount(int64(o.Runs), weight))
	p.Aborts += int(scaleCount(int64(o.Aborts), weight))
	p.Reproduced = p.Reproduced || o.Reproduced
	p.Solver.Add(o.Solver)
	if p.Branches == nil {
		p.Branches = make(map[lang.BranchID]*BranchCost, len(o.Branches))
	}
	for id, bc := range o.Branches {
		if have, ok := p.Branches[id]; ok {
			have.add(bc, weight)
		} else {
			cp := BranchCost{}
			cp.add(bc, weight)
			p.Branches[id] = &cp
		}
	}
	return nil
}

// TopBlowup returns up to k branch IDs ranked by their blowup — the
// branches most responsible for search length — restricted to branches NOT
// in the instrumented set (promoting an already-logged branch buys
// nothing). It is the promotion decision of a refinement step, so k <= 0
// selects DefaultRefineTopK, the documented contract of every TopK option.
// Ranking is deterministic: aborted runs, then forks, then solver calls,
// then lower branch ID. Branches that charged nothing are never returned,
// so the result may be shorter than k.
func (p *SearchProfile) TopBlowup(k int, instrumented map[lang.BranchID]bool) []lang.BranchID {
	if k <= 0 {
		k = DefaultRefineTopK
	}
	if len(p.Branches) == 0 {
		return nil
	}
	type cand struct {
		id                  lang.BranchID
		runs, forks, solves int64
	}
	cands := make([]cand, 0, len(p.Branches))
	for id, bc := range p.Branches {
		if instrumented[id] {
			continue
		}
		runs, forks, solves := bc.blowup()
		if runs == 0 && forks == 0 && solves == 0 {
			continue
		}
		cands = append(cands, cand{id: id, runs: runs, forks: forks, solves: solves})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].runs != cands[j].runs {
			return cands[i].runs > cands[j].runs
		}
		if cands[i].forks != cands[j].forks {
			return cands[i].forks > cands[j].forks
		}
		if cands[i].solves != cands[j].solves {
			return cands[i].solves > cands[j].solves
		}
		return cands[i].id < cands[j].id
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]lang.BranchID, len(cands))
	for i, c := range cands {
		out[i] = c.id
	}
	return out
}

// Demotable returns the instrumented branches whose logged bits the
// profile proves redundant: branches the search exercised under logging
// (LoggedExecs > 0) whose bits never once disagreed with the run's own
// direction (Disagreements == 0). Every consumed bit at such a branch was
// implied by the rest of the path — dropping it wins back record overhead
// without removing a constraint the search ever used. Branches the profile
// never charged are NOT demotable: silence is absence of evidence, not
// evidence of redundancy. The result is sorted by branch ID, so the
// demotion decision (and the refined plan's fingerprint) is deterministic.
func (p *SearchProfile) Demotable(instrumented map[lang.BranchID]bool) []lang.BranchID {
	var out []lang.BranchID
	for id, bc := range p.Branches {
		if instrumented[id] && bc.LoggedExecs > 0 && bc.Disagreements == 0 {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// hashIDs renders a short deterministic tag for a promoted branch set, used
// in refined strategy names so distinct promotions cache as distinct plans.
func hashIDs(ids []lang.BranchID) string {
	h := fnv.New32a()
	for _, id := range ids {
		fmt.Fprintf(h, "b%d,", id)
	}
	return fmt.Sprintf("%08x", h.Sum32())
}

// Save writes the profile to path as indented JSON, the artifact
// cmd/replay -profile-out and the harness's adaptive experiment emit.
func (p *SearchProfile) Save(path string) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return fmt.Errorf("instrument: encode search profile: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadSearchProfile reads a profile saved by Save.
func LoadSearchProfile(path string) (*SearchProfile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p SearchProfile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("instrument: decode search profile: %w", err)
	}
	return &p, nil
}
