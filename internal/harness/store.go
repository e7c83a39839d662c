package harness

import (
	"context"
	"fmt"
	"os"

	"pathlog"
	"pathlog/internal/apps"
	"pathlog/internal/static"
)

// Store proves the deployment-lifecycle claim the plan store exists for: a
// cold session's frontier sweep improves after loading a prior session's
// measured points. Phase one (warm) runs the adaptive loop on the uServer
// (exp 3) with a plan store attached, persisting every deployed generation
// and its measured (overhead, replay) point. Phase two (cold) builds a
// brand-new session over the same store and sweeps the frontier twice:
// once ignoring the store (pure cost-model estimates — what any cold
// session knew before this PR) and once with the store folded in, where
// the warm session's measurements appear as ground-truth points with their
// estimated-vs-measured drift rendered. The drift columns are the point:
// they show, per plan, how far the model's pricing was from what the
// deployment actually observed — knowledge only the store can carry
// between sessions.
func (c Config) Store(ctx context.Context) (*Table, error) {
	dir := c.StoreDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "pathlog-store-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	scenario := func() (*pathlog.Session, error) {
		s, err := apps.UServerScenario(3, 72)
		if err != nil {
			return nil, err
		}
		return pathlog.SessionOf(s,
			pathlog.WithAnalysisSpec(apps.UServerAnalysisScenario().Spec),
			pathlog.WithDynamicBudget(c.UServerAnalysisRunsLC, 0),
			pathlog.WithStaticOptions(static.Options{LibAsSymbolic: true}),
			pathlog.WithSyscallLog(),
			pathlog.WithStrategy(pathlog.Dynamic()),
			pathlog.WithReplayBudget(c.ReplayMaxRuns, c.ReplayBudget),
			pathlog.WithPlanStore(dir),
		), nil
	}

	// Warm session: deploy, measure, refine — everything lands in the store.
	warm, err := scenario()
	if err != nil {
		return nil, err
	}
	tr, err := warm.AutoBalance(ctx, nil, pathlog.BalanceOptions{
		TargetReplayRuns: c.AdaptiveTargetRuns,
		MaxGenerations:   c.AdaptiveMaxGenerations,
	})
	if err != nil {
		return nil, err
	}

	// Cold session: same program, same workload name, zero shared memory —
	// only the store directory connects the two.
	cold, err := scenario()
	if err != nil {
		return nil, err
	}
	merged, err := cold.Frontier(ctx)
	if err != nil {
		return nil, err
	}
	// For the "before" rows, sweep what a storeless cold session would see:
	// pure cost-model estimates with no measured history.
	bare, err := apps.UServerScenario(3, 72)
	if err != nil {
		return nil, err
	}
	noStore := pathlog.SessionOf(bare,
		pathlog.WithAnalysisSpec(apps.UServerAnalysisScenario().Spec),
		pathlog.WithDynamicBudget(c.UServerAnalysisRunsLC, 0),
		pathlog.WithStaticOptions(static.Options{LibAsSymbolic: true}),
		pathlog.WithSyscallLog(),
	)
	before, err := noStore.Frontier(ctx)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "Store",
		Title: "plan store: cold-session frontier before/after loading measured history (uServer exp 3)",
		Header: []string{"sweep", "strategy", "locs", "bits/run", "replay runs",
			"measured", "drift bits", "drift runs"},
	}
	addRows := func(label string, points []pathlog.PlanPoint) {
		for _, pt := range points {
			measured, dBits, dRuns := "", "-", "-"
			if pt.Measured {
				measured = "yes"
				dBits = fmt.Sprintf("%+.1f", pt.OverheadDrift())
				dRuns = fmt.Sprintf("%+.1f", pt.ReplayRunsDrift())
			}
			t.AddRow(label, shorten(pt.Strategy, 40),
				fmt.Sprintf("%d", pt.Plan.NumInstrumented()),
				fmt.Sprintf("%.1f", pt.Overhead),
				fmt.Sprintf("%.1f", pt.ReplayRuns),
				measured, dBits, dRuns)
		}
	}
	addRows("cold (no store)", before)
	addRows("cold + store", merged)

	nMeasured := 0
	for _, pt := range merged {
		if pt.Measured {
			nMeasured++
		}
	}
	status := "improved"
	if nMeasured == 0 {
		status = "NOT improved"
	}
	final := tr.Final()
	t.Notes = append(t.Notes,
		fmt.Sprintf("warm AutoBalance: %d generations, converged=%v (%s)",
			len(tr.Points), tr.Converged, tr.Reason),
		fmt.Sprintf("cold sweep %s: %d measured ground-truth point(s) resolved from the store replaced or joined the estimates",
			status, nMeasured),
		fmt.Sprintf("store retains the full lineage: a recording stamped with generation %d resolves without any plan file",
			final.Plan.Generation))
	return t, nil
}
