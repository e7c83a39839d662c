package instrument

import (
	"context"
	"fmt"
	"strings"

	"pathlog/internal/lang"
)

// Refine closes the paper's feedback loop at the strategy layer: when the
// developer-site search under a cheap partial plan takes too long, the next
// plan generation keeps everything the base plan logged and additionally
// instruments the branches the search blamed for the blowup — one more bit
// per execution of each promoted branch buys the search one fewer
// speculative dimension. The promotion is decided eagerly (the top-k
// blowup branches of the profile that the base plan does not already
// instrument), so the strategy's name pins the exact decision and refined
// plans cache and fingerprint like any other plan.
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
// plus the top-k blowup branches the profile attributes the search length
// to. A profile that blames no promotable branch yields a plan identical
// to the base (callers detect the fixed point by comparing fingerprints).
//
// Refine refuses a profile measured under a different plan than base: the
// attribution is only meaningful for the plan whose gaps produced it.
func Refine(base *Plan, profile *SearchProfile, k int) (Strategy, error) {
	return refineWith(base, profile, k, true, false, 0)
}

// DemoteAt returns the strategy deriving the next plan generation by
// shrinking the base plan: every instrumented branch whose disagreement
// rate is at most rate (SearchProfile.DemotableAt; rate 0 is the strict
// SearchProfile.Demotable rule — bits consumed, zero disagreements) is
// dropped, winning back its record overhead. Nothing is promoted. A
// profile with no demotable branch yields a plan identical to the base.
// The demotion is evidence-based, not verified: callers that can
// re-measure (the Session balance loop) must refuse a demoted plan whose
// measured replay regresses.
func DemoteAt(base *Plan, profile *SearchProfile, rate float64) (Strategy, error) {
	return refineWith(base, profile, 0, false, true, rate)
}

// RefineAndDemote combines both directions of the balance in one
// generation: the top-k blowup branches are promoted into the plan and the
// proven-redundant branches are dropped from it, so a corpus refinement
// step both speeds up replay and shrinks user-site overhead. The two sets
// are disjoint by construction (TopBlowup only proposes uninstrumented
// branches; Demotable only instrumented ones).
func RefineAndDemote(base *Plan, profile *SearchProfile, k int) (Strategy, error) {
	return refineWith(base, profile, k, true, true, 0)
}

// refineWith builds the refinement strategy. With promote set, k <= 0
// selects DefaultRefineTopK (the documented contract of every TopK
// option); without it nothing is promoted (the demote-only form). The
// demotion candidate rule is rate-thresholded (DemotableAt); rate 0 keeps
// the strict zero-disagreement rule.
func refineWith(base *Plan, profile *SearchProfile, k int, promote, demote bool, rate float64) (Strategy, error) {
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
	var promoted []lang.BranchID
	if promote {
		if k <= 0 {
			k = DefaultRefineTopK
		}
		promoted = profile.TopBlowup(k, base.Instrumented)
	}
	var demoted []lang.BranchID
	if demote {
		demoted = profile.DemotableAt(base.Instrumented, rate)
	}
	return &refineStrategy{
		base:     base,
		promoted: promoted,
		demoted:  demoted,
		name:     refineName(base, promoted, demoted),
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
	if baseName == "" {
		baseName = base.Method.String()
	}
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

// Promoted returns the branch IDs this refinement adds to the base plan,
// in blowup order.
func (s *refineStrategy) Promoted() []lang.BranchID {
	return append([]lang.BranchID(nil), s.promoted...)
}

// Demoted returns the branch IDs this refinement drops from the base plan,
// in branch-ID order.
func (s *refineStrategy) Demoted() []lang.BranchID {
	return append([]lang.BranchID(nil), s.demoted...)
}

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
