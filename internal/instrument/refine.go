package instrument

import (
	"context"
	"fmt"
	"strings"

	"pathlog/internal/lang"
)

// Refine closes the paper's feedback loop at the strategy layer: when the
// developer-site search under a cheap partial plan takes too long, the next
// plan generation keeps everything the base plan logged, additionally
// instruments the branches the search blamed for the blowup — one more bit
// per execution of each promoted branch buys the search one fewer
// speculative dimension — and drops the branches whose logged bits never
// constrained it. Both sets are decided by the caller before the strategy
// exists (SearchProfile.TopBlowup and SearchProfile.Demotable), so the
// strategy's name pins the exact decision and refined plans cache and
// fingerprint like any other plan.
//
// The resulting plan carries lineage: Generation = base.Generation+1 and
// Parent = base.Fingerprint(), so a trajectory of refinements remains
// auditable after Save/LoadPlan round-trips.
type refineStrategy struct {
	base     *Plan
	promoted []lang.BranchID
	demoted  []lang.BranchID
	name     string
}

// Refine returns the strategy deriving the next plan generation from a
// base plan and the search profile measured under it: the base branch set
// plus promote minus demote. Callers decide each set from the profile —
// promote from TopBlowup (uninstrumented blowup branches, in blowup
// order), demote from Demotable (instrumented branches whose bits the
// profile proves redundant, in branch-ID order). Empty sets yield a plan
// identical to the base (callers detect the fixed point by comparing
// fingerprints).
//
// Refine refuses a profile measured under a different plan than base: the
// attribution is only meaningful for the plan whose gaps produced it.
func Refine(base *Plan, profile *SearchProfile, promote, demote []lang.BranchID) (Strategy, error) {
	if base == nil {
		return nil, fmt.Errorf("instrument: refine needs a base plan")
	}
	if profile == nil {
		return nil, fmt.Errorf("instrument: refine needs a search profile")
	}
	if profile.PlanFingerprint != "" {
		if got := base.Fingerprint(); got != profile.PlanFingerprint {
			return nil, fmt.Errorf("instrument: profile was measured under plan %s, cannot refine plan %s (generation %d): record and replay under the plan being refined",
				profile.PlanFingerprint, got, base.Generation)
		}
	}
	// The strategy is cached by name, so it keeps its own copy of the
	// decision the name renders.
	promote = append([]lang.BranchID(nil), promote...)
	demote = append([]lang.BranchID(nil), demote...)
	return &refineStrategy{
		base:     base,
		promoted: promote,
		demoted:  demote,
		name:     refineName(base, promote, demote),
	}, nil
}

// DefaultRefineTopK is the promotion width when the caller does not choose
// one: wide enough to collapse a multi-branch blowup in one generation,
// narrow enough that overhead grows a few bits per run at a time.
const DefaultRefineTopK = 4

// refineName renders the refined strategy's identifier. The base plan is
// always pinned by (a prefix of) its fingerprint — strategy names alone
// are not identities, and the session caches plans by name, so two bases
// both called "dynamic" with different branch sets must refine under
// different names. Small promotions list the branch IDs outright; larger
// ones carry a count plus a deterministic hash. Demotions render the same
// way with a "-" sign, and only when present — promotion-only names are
// byte-identical to what they were before demotion existed. Refining a
// refined plan drops the base's strategy text, keeping deep chains flat:
// refine(dynamic@a2d02b70,gen1,+b15) then refine(@831530c5,gen2,+b33,-b7).
func refineName(base *Plan, promoted, demoted []lang.BranchID) string {
	fp := base.Fingerprint()
	if len(fp) > 8 {
		fp = fp[:8]
	}
	baseName := base.Strategy
	if base.Generation > 0 {
		baseName = "@" + fp
	} else {
		baseName += "@" + fp
	}
	tag := idsTag("+", promoted)
	if tag == "" {
		tag = "+none"
	}
	if d := idsTag("-", demoted); d != "" {
		tag += "," + d
	}
	return fmt.Sprintf("refine(%s,gen%d,%s)", baseName, base.Generation+1, tag)
}

// idsTag renders a signed branch-ID set: up to 6 IDs outright, larger sets
// as a count plus a deterministic hash, an empty set as "".
func idsTag(sign string, ids []lang.BranchID) string {
	switch {
	case len(ids) == 0:
		return ""
	case len(ids) <= 6:
		parts := make([]string, len(ids))
		for i, id := range ids {
			parts[i] = fmt.Sprintf("b%d", id)
		}
		return sign + strings.Join(parts, sign)
	default:
		return fmt.Sprintf("%s%d@%s", sign, len(ids), hashIDs(ids))
	}
}

// Name implements Strategy.
func (s *refineStrategy) Name() string { return s.name }

// Plan implements Strategy: the base set plus the promoted branches minus
// the demoted ones, with the generation lineage stamped on.
func (s *refineStrategy) Plan(ctx context.Context, pc *PlanContext) (*Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := s.base.ValidateForProgram(pc.Prog); err != nil {
		return nil, fmt.Errorf("instrument: refine base plan does not fit the program: %w", err)
	}
	set := make(map[lang.BranchID]bool, len(s.base.Instrumented)+len(s.promoted))
	for id, v := range s.base.Instrumented {
		if v {
			set[id] = true
		}
	}
	for _, id := range s.promoted {
		set[id] = true
	}
	for _, id := range s.demoted {
		delete(set, id)
	}
	p := pc.NewPlan(s.name, set)
	// The refined build logs syscalls iff the base build did: refinement
	// changes the branch set, not the record-time feature set.
	p.LogSyscalls = s.base.LogSyscalls
	p.Generation = s.base.Generation + 1
	p.Parent = s.base.Fingerprint()
	return p, nil
}
