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
// set of instrumentation strategies over the session's analysis, measures
// each resulting plan on the session's workload (record the user run under
// the plan, replay the bug report), and returns the Pareto frontier of the
// measurements — the plans no other measured plan beats on both logged
// bits per run and replay runs. The developer picks a point; everything
// off the frontier is strictly worse somewhere. Bits are priced by the
// cost model only to rank branches; the frontier's coordinates are what
// the record and the search observed.

// PlanPoint is one Pareto-optimal plan from a Frontier sweep: a plan
// whose workload reproduced, at its measured coordinates.
type PlanPoint struct {
	// Strategy is the name of the strategy that produced the plan.
	Strategy string
	// Plan is the measured plan (save it with Plan.Save).
	Plan *Plan
	// Overhead is the measured record overhead: the bits the workload's
	// user run logged under the plan.
	Overhead float64
	// ReplayRuns is the measured debug time: the runs the replay search
	// took to reproduce the workload's bug report.
	ReplayRuns float64
}

// DefaultSweep returns the strategy sweep Frontier uses when called with
// no strategies: the paper's four methods, and a Budgeted ladder between
// dynamic+static and all branches that fills the curve with intermediate
// points (1/8, 1/4 and 1/2 of the program's branch locations, ranked by
// symbolic executions per logged bit). The uninstrumented baseline is not
// swept: its build reports nothing, so it has no debug time to measure.
func DefaultSweep(numBranches int) []Strategy {
	combined := instrument.Union(instrument.Dynamic(), instrument.StaticResidue())
	sweep := []Strategy{
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
// and measures every distinct plan the way AutoBalance measures its
// generation 0: the session's workload (WithUserBytes) is recorded under
// the plan and replayed as a one-report corpus under the session's replay
// budget. It returns the Pareto frontier of (measured bits per run,
// measured replay runs) over the plans that reproduced, sorted by strictly
// increasing overhead — so replay runs strictly decrease along the
// result. Plans with identical fingerprints collapse to one point; plan
// construction fans out over a pool of GOMAXPROCS workers. The workload
// must crash, and every swept plan must instrument something.
//
// With a plan store configured (WithPlanStore), every measurement is
// filed under the session's WorkloadHash (unless that history is damaged),
// and the store's earlier
// measurements for this program and workload fold in: refined generations
// the sweep would never have proposed compete for the frontier as the
// same kind of point, so a cold session's frontier grows with every
// deployment history the store accumulates.
func (s *Session) Frontier(ctx context.Context, strategies ...Strategy) ([]PlanPoint, error) {
	in, err := s.Analyze(ctx)
	if err != nil {
		return nil, err
	}
	if len(strategies) == 0 {
		strategies = DefaultSweep(len(s.prog.Branches))
	}
	pc := s.planContext(in)

	plans := make([]*Plan, len(strategies))
	errs := make([]error, len(strategies))
	fanOut(len(strategies), func(i int) { plans[i], errs[i] = strategies[i].Plan(ctx, pc) })

	var (
		swept    []PlanPoint
		workload *Corpus
		seen     = make(map[string]bool)
	)
	for i, p := range plans {
		if errs[i] != nil {
			return nil, fmt.Errorf("pathlog: frontier strategy %s: %w", strategies[i].Name(), errs[i])
		}
		fp := p.Fingerprint()
		if seen[fp] {
			continue // identical plan under another name: one point
		}
		seen[fp] = true
		if workload == nil {
			if workload, err = s.workloadCorpus(ctx, p, nil); err != nil {
				return nil, fmt.Errorf("pathlog: frontier strategy %s: %w", strategies[i].Name(), err)
			}
		}
		cur, out, err := s.measure(ctx, p, workload, CorpusOptions{})
		if err != nil {
			return nil, fmt.Errorf("pathlog: frontier strategy %s: %w", strategies[i].Name(), err)
		}
		// A damaged measured file is left for Scan to report: the sweep's
		// own measurement stands without it.
		pt := newBalancePoint(p, cur, out, nil, nil)
		if err := s.appendMeasured(s.WorkloadHash(), pt); err != nil && !errors.Is(err, store.ErrDamaged) {
			return nil, fmt.Errorf("pathlog: frontier: persist measured point: %w", err)
		}
		if out.AllReproduced() {
			swept = append(swept, PlanPoint{
				Strategy:   strategies[i].Name(),
				Plan:       p,
				Overhead:   pt.MeanOverheadBits,
				ReplayRuns: pt.MeanReplayRuns,
			})
		}
	}
	// The store's points for plans the sweep just measured are those
	// measurements (or older ones they supersede).
	stored, err := s.storedMeasuredPoints(pc.Prog.Hash())
	if err != nil {
		return nil, err
	}
	for _, pt := range stored {
		if !seen[pt.Plan.Fingerprint()] {
			swept = append(swept, pt)
		}
	}
	return paretoFrontier(swept), nil
}

// storedMeasuredPoints loads the plan store's measured history for this
// program and workload as frontier points: one point per fingerprint (the
// latest observation wins — re-measurement supersedes), with the retained
// plan resolved from the store. Budget-censored points (not reproduced)
// are the paper's ∞ and are excluded; a damaged measured file, or a
// measurement whose plan is missing or damaged, is skipped — Scan reports
// such entries, a sweep does not fail on them (its own measurements
// stand). Without WithPlanStore it returns nothing.
func (s *Session) storedMeasuredPoints(progHash string) ([]PlanPoint, error) {
	st, err := s.PlanStore()
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
		})
	}
	return out, nil
}

// paretoFrontier keeps the non-dominated points, sorted by increasing
// overhead, so replay runs strictly decrease along the result. Of
// cost-identical plans, the first in sweep order survives.
func paretoFrontier(points []PlanPoint) []PlanPoint {
	sort.SliceStable(points, func(i, j int) bool {
		if points[i].Overhead != points[j].Overhead {
			return points[i].Overhead < points[j].Overhead
		}
		return points[i].ReplayRuns < points[j].ReplayRuns
	})
	out := points[:0]
	bestRuns := math.Inf(1)
	for _, p := range points {
		if p.ReplayRuns < bestRuns {
			out = append(out, p)
			bestRuns = p.ReplayRuns
		}
	}
	return out
}
