package harness

import (
	"context"
	"fmt"
	"os"

	"pathlog"
	"pathlog/internal/apps"
)

// Store proves the deployment-lifecycle claim the plan store exists for: a
// cold session's frontier grows after loading a prior session's measured
// points. Phase one (warm) runs the adaptive loop on the uServer (exp 3)
// with a plan store attached, persisting every deployed generation and its
// measured (overhead, replay) point. Phase two (cold) builds a brand-new
// session over the same store and measures the default sweep twice: once
// without the store, and once with it, where the warm session's refined
// generations — plans no sweep proposes — fold in as the same kind of
// measured point and compete for the frontier. The generation column shows
// which points only the store can carry between sessions.
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

	scenario := func(opts ...pathlog.Option) (*pathlog.Session, error) {
		s, err := apps.UServerScenario(3, 72)
		if err != nil {
			return nil, err
		}
		return uServerSession(s, c.UServerAnalysisRunsLC, append([]pathlog.Option{
			pathlog.WithStrategy(pathlog.Dynamic()),
			pathlog.WithReplayBudget(c.ReplayMaxRuns, c.ReplayBudget),
		}, opts...)...), nil
	}

	// Warm session: deploy, measure, refine — everything lands in the store.
	warm, err := scenario(pathlog.WithPlanStore(dir))
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

	// Cold session: same program, same workload, zero shared memory —
	// only the store directory connects the two. The "before" rows come
	// from an identical session without the store.
	cold, err := scenario(pathlog.WithPlanStore(dir))
	if err != nil {
		return nil, err
	}
	merged, err := cold.Frontier(ctx)
	if err != nil {
		return nil, err
	}
	noStore, err := scenario()
	if err != nil {
		return nil, err
	}
	before, err := noStore.Frontier(ctx)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "Store",
		Title:  "plan store: cold-session measured frontier before/after loading measured history (uServer exp 3)",
		Header: []string{"sweep", "strategy", "gen", "locs", "bits/run", "replay runs", "fingerprint"},
	}
	addRows := func(label string, points []pathlog.PlanPoint) (refined int) {
		for _, pt := range points {
			if pt.Plan.Generation > 0 {
				refined++
			}
			t.AddRow(label, shorten(pt.Strategy, 40),
				fmt.Sprintf("%d", pt.Plan.Generation),
				fmt.Sprintf("%d", pt.Plan.NumInstrumented()),
				fmt.Sprintf("%.1f", pt.Overhead),
				fmt.Sprintf("%.1f", pt.ReplayRuns),
				pt.Plan.Fingerprint())
		}
		return refined
	}
	addRows("cold (no store)", before)
	added := addRows("cold + store", merged)

	status := "grew"
	if added == 0 {
		status = "did NOT grow"
	}
	final := tr.Final()
	t.Notes = append(t.Notes,
		fmt.Sprintf("warm AutoBalance: %d generations, converged=%v (%s)",
			len(tr.Points), tr.Converged, tr.Reason),
		fmt.Sprintf("cold frontier %s: %d refined generation(s) from the store joined the %d swept plan(s) on the frontier",
			status, added, len(merged)-added),
		fmt.Sprintf("store retains the full lineage: a recording stamped with generation %d resolves without any plan file",
			final.Plan.Generation))
	return t, nil
}
