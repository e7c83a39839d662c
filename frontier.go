package pathlog

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"pathlog/internal/instrument"
	"pathlog/internal/store"
)

// Frontier is the paper's titular balance as a callable API: it sweeps a
// set of instrumentation strategies over the session's analysis, prices
// each resulting plan with the cost model (estimated record overhead
// versus estimated debug time), and returns the Pareto frontier — the
// plans no other swept plan beats on both axes. The developer picks a
// point; everything off the frontier is strictly worse somewhere.

// PlanPoint is one Pareto-optimal plan from a Frontier sweep.
type PlanPoint struct {
	// Strategy is the name of the strategy that produced the plan.
	Strategy string
	// Plan is the priced, durable plan (save it with Plan.Save).
	Plan *Plan
	// Overhead is the estimated record overhead in logged bits per
	// user-site run (Plan.EstimatedOverhead).
	Overhead float64
	// ReplayRuns is the estimated debug time in replay search runs
	// (Plan.EstimatedReplayRuns).
	ReplayRuns float64
	// Measured marks a point whose coordinates were observed (a recorded
	// run's logged bits, a replay search's run count) rather than priced by
	// the cost model — a balance generation's measurement the plan store
	// contributed to a Frontier sweep (WithPlanStore).
	Measured bool
}

// OverheadDrift returns how far the measured record overhead landed from
// the cost model's estimate for the same plan (measured minus estimated
// bits per run): the model's pricing error, renderable next to the
// frontier. It is 0 for estimated points — there is nothing to drift from.
func (pt PlanPoint) OverheadDrift() float64 {
	if !pt.Measured || pt.Plan == nil {
		return 0
	}
	return pt.Overhead - pt.Plan.EstimatedOverhead()
}

// ReplayRunsDrift returns how far the measured replay search length landed
// from the cost model's estimate for the same plan (measured minus
// estimated runs); 0 for estimated points.
func (pt PlanPoint) ReplayRunsDrift() float64 {
	if !pt.Measured || pt.Plan == nil {
		return 0
	}
	return pt.ReplayRuns - pt.Plan.EstimatedReplayRuns()
}

// DefaultSweep returns the strategy sweep Frontier uses when called with
// no strategies: the paper's four methods plus the baseline, and a
// Budgeted ladder between dynamic+static and all branches that fills the
// curve with intermediate points (1/8, 1/4 and 1/2 of the program's
// branch locations, chosen by cost-model value density).
func DefaultSweep(numBranches int) []Strategy {
	combined := instrument.Union(instrument.Dynamic(), instrument.StaticResidue())
	sweep := []Strategy{
		instrument.None(),
		instrument.Dynamic(),
		combined,
		instrument.Static(),
		instrument.All(),
	}
	for _, frac := range []int{8, 4, 2} {
		if k := numBranches / frac; k > 0 {
			sweep = append(sweep, instrument.Budgeted(instrument.All(), k))
		}
	}
	return sweep
}

// Frontier sweeps the given strategies (DefaultSweep when none are given)
// and returns the Pareto frontier of (estimated record overhead, estimated
// replay runs), sorted by strictly increasing overhead — so estimated
// replay runs strictly decrease along the result. Plans with identical
// fingerprints collapse to one point. Plan construction fans out over a
// pool of GOMAXPROCS workers.
//
// With a plan store configured (WithPlanStore), the sweep also folds in
// the store's persisted measured points for this program and workload:
// where a measurement and an estimate describe the same plan fingerprint
// the measurement wins, and measured plans the sweep would never have
// proposed (refined generations from earlier sessions) compete for the
// frontier on their observed coordinates. Measured points carry
// PlanPoint.Measured and nonzero drift accessors, so a cold session's
// frontier improves with every deployment history the store accumulates.
func (s *Session) Frontier(ctx context.Context, strategies ...Strategy) ([]PlanPoint, error) {
	in, err := s.Analyze(ctx)
	if err != nil {
		return nil, err
	}
	if len(strategies) == 0 {
		strategies = DefaultSweep(len(s.prog.Branches))
	}
	pc := s.planContext(in)
	// Cold calibration: fold the store's retained per-generation search
	// profiles into the cost model before the first sweep, so estimates
	// for unmeasured plans start from observed rates, not analysis priors.
	s.calibrateForSweep(pc)

	plans := make([]*Plan, len(strategies))
	errs := make([]error, len(strategies))
	fanOut(len(strategies), func(i int) { plans[i], errs[i] = strategies[i].Plan(ctx, pc) })

	points := make([]PlanPoint, 0, len(strategies))
	seen := make(map[string]bool)
	for i, p := range plans {
		if errs[i] != nil {
			return nil, fmt.Errorf("pathlog: frontier strategy %s: %w", strategies[i].Name(), errs[i])
		}
		fp := p.Fingerprint()
		if seen[fp] {
			continue // identical plan under another name: one point
		}
		seen[fp] = true
		points = append(points, PlanPoint{
			Strategy:   strategies[i].Name(),
			Plan:       p,
			Overhead:   p.EstimatedOverhead(),
			ReplayRuns: p.EstimatedReplayRuns(),
		})
	}
	measured, err := s.storedMeasuredPoints(pc.Prog.Hash())
	if err != nil {
		return nil, err
	}
	return mergeMeasured(measured, points), nil
}

// storedMeasuredPoints loads the plan store's measured history for this
// program and workload as frontier points: one point per fingerprint (the
// latest observation wins — re-measurement supersedes), with the retained
// plan resolved from the store so each point keeps its cost estimate for
// drift rendering. Budget-censored points (not reproduced) are the paper's
// ∞ and are excluded; a damaged measured file, or a measurement whose
// plan is missing or damaged, is skipped — Scan reports such entries, a
// sweep does not fail on them (the estimates stand). Without
// WithPlanStore it returns nothing.
func (s *Session) storedMeasuredPoints(progHash string) ([]PlanPoint, error) {
	st, err := s.planStore()
	if err != nil || st == nil {
		return nil, err
	}
	pts, err := st.Measured(progHash, s.WorkloadHash())
	if errors.Is(err, store.ErrDamaged) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	latest := make(map[string]store.MeasuredPoint, len(pts))
	order := make([]string, 0, len(pts))
	for _, pt := range pts {
		if !pt.Reproduced {
			continue
		}
		if _, ok := latest[pt.Fingerprint]; !ok {
			order = append(order, pt.Fingerprint)
		}
		latest[pt.Fingerprint] = pt
	}
	out := make([]PlanPoint, 0, len(order))
	for _, fp := range order {
		mp := latest[fp]
		plan, err := st.GetPlan(fp)
		if err != nil {
			continue
		}
		out = append(out, PlanPoint{
			Strategy:   mp.Strategy,
			Plan:       plan,
			Overhead:   float64(mp.OverheadBits),
			ReplayRuns: float64(mp.ReplayRuns),
			Measured:   true,
		})
	}
	return out, nil
}

// mergeMeasured folds measured points into an estimated frontier sweep
// and returns the recomputed Pareto frontier. Where a measured point and
// an estimated point describe the same plan (same fingerprint), the
// measurement wins: the cost model proposed the plan, the deployment
// graded it. The first measured occurrence survives duplicate
// measurements, and measured points are never displaced by estimates (see
// paretoFrontier).
func mergeMeasured(measured, estimated []PlanPoint) []PlanPoint {
	merged := make([]PlanPoint, 0, len(estimated)+len(measured))
	seen := make(map[string]bool, len(measured))
	for _, pt := range measured {
		fp := pt.Plan.Fingerprint()
		if seen[fp] {
			continue
		}
		seen[fp] = true
		merged = append(merged, pt)
	}
	for _, pt := range estimated {
		if seen[pt.Plan.Fingerprint()] {
			continue
		}
		merged = append(merged, pt)
	}
	return paretoFrontier(merged)
}

// paretoFrontier keeps the non-dominated points, sorted by increasing
// overhead. Of cost-identical plans, the first in sweep order survives.
//
// Estimates and measurements are not peers here: a measured point is
// ground truth and is only ever displaced by another measured point,
// while an estimated point dies to any point that beats it. An optimistic
// estimate therefore cannot evict a measurement that the deployment
// already disproved it against — the measurement stays on the frontier,
// and the gap it leaves above the estimated curve is exactly the rendered
// drift. Consequently replay runs strictly decrease along the estimated
// points and along the measured points separately, not necessarily across
// the union.
func paretoFrontier(points []PlanPoint) []PlanPoint {
	sort.SliceStable(points, func(i, j int) bool {
		if points[i].Overhead != points[j].Overhead {
			return points[i].Overhead < points[j].Overhead
		}
		return points[i].ReplayRuns < points[j].ReplayRuns
	})
	out := points[:0]
	bestRuns := math.Inf(1)         // lowest replay runs of any kept point
	bestMeasuredRuns := math.Inf(1) // lowest replay runs of any kept measured point
	for _, p := range points {
		switch {
		case p.Measured && p.ReplayRuns < bestMeasuredRuns:
			out = append(out, p)
			bestMeasuredRuns = p.ReplayRuns
			if p.ReplayRuns < bestRuns {
				bestRuns = p.ReplayRuns
			}
		case !p.Measured && p.ReplayRuns < bestRuns:
			out = append(out, p)
			bestRuns = p.ReplayRuns
		}
	}
	return out
}
