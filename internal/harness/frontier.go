package harness

import (
	"context"
	"fmt"

	"pathlog"
	"pathlog/internal/apps"
	"pathlog/internal/static"
)

// Frontier renders the paper's titular balance as one table: the Pareto
// frontier of (record overhead, estimated debug time) over the uServer,
// swept by Session.Frontier across the paper's methods plus Budgeted
// intermediate points. Each frontier plan additionally runs the load
// workload once so the modeled bits/run sit next to measured logged bits.
func (c Config) Frontier(ctx context.Context) (*Table, error) {
	s := apps.UServerLoadScenario(c.UServerLoadRequests, apps.DefaultHTTPRequest)
	sess := pathlog.SessionOf(s,
		pathlog.WithAnalysisSpec(apps.UServerAnalysisScenario().Spec),
		pathlog.WithDynamicBudget(c.UServerAnalysisRunsHC, 0),
		pathlog.WithStaticOptions(static.Options{LibAsSymbolic: true}),
		pathlog.WithSyscallLog(),
	)
	points, err := sess.Frontier(ctx)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "Frontier",
		Title: "overhead/debug-time Pareto frontier, uServer (the paper's titular balance)",
		Header: []string{"strategy", "instr. locations", "est bits/run",
			"est replay runs", "measured bits", "fingerprint"},
	}
	for _, pt := range points {
		measured := "0"
		if pt.Plan.Instruments() {
			_, stats, err := sess.RecordWith(ctx, pt.Plan, nil)
			if err != nil {
				return nil, fmt.Errorf("frontier %s: %w", pt.Strategy, err)
			}
			measured = fmt.Sprintf("%d", stats.TraceBits)
		}
		t.AddRow(pt.Strategy,
			fmt.Sprintf("%d", pt.Plan.NumInstrumented()),
			fmt.Sprintf("%.1f", pt.Overhead),
			fmt.Sprintf("%.1f", pt.ReplayRuns),
			measured,
			pt.Plan.Fingerprint())
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d Pareto-optimal strategies; estimated replay runs strictly decrease as overhead rises", len(points)),
		"estimates come from the concolic profile (per-branch hit counts); unvisited branches are priced with priors")
	return t, nil
}
