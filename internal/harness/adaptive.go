package harness

import (
	"context"
	"fmt"

	"pathlog"
	"pathlog/internal/apps"
	"pathlog/internal/static"
)

// Adaptive reproduces the paper's feedback-loop claim on the uServer:
// starting from a low-coverage dynamic plan whose replay blows past the
// budget, AutoBalance promotes the branches the search blames until the
// bug replays within the target — replay runs drop monotonically across
// generations while recorded bits/run grow sublinearly compared to
// instrumenting all branches. Input scenario 3 (cookies and
// percent-escapes) exercises the parser paths a thin concolic budget
// misses hardest.
//
// When AdaptiveTrajectoryOut / AdaptiveProfileOut are set, the
// per-generation trajectory and the final generation's search profile are
// written as JSON artifacts (CI uploads them next to the replay bench).
func (c Config) Adaptive(ctx context.Context) (*Table, error) {
	s, err := apps.UServerScenario(3, 72)
	if err != nil {
		return nil, err
	}
	sess := pathlog.SessionOf(s,
		pathlog.WithAnalysisSpec(apps.UServerAnalysisScenario().Spec),
		pathlog.WithDynamicBudget(c.UServerAnalysisRunsLC, 0),
		pathlog.WithStaticOptions(static.Options{LibAsSymbolic: true}),
		pathlog.WithSyscallLog(),
		pathlog.WithStrategy(pathlog.Dynamic()),
		pathlog.WithReplayBudget(c.ReplayMaxRuns, c.ReplayBudget),
	)
	tr, err := sess.AutoBalance(ctx, nil, pathlog.BalanceOptions{
		TargetReplayRuns: c.AdaptiveTargetRuns,
		MaxGenerations:   c.AdaptiveMaxGenerations,
	})
	if err != nil {
		return nil, err
	}

	// The comparison bar: what logging every branch would have cost on the
	// same workload.
	allPlan, err := sess.PlanWith(ctx, pathlog.All())
	if err != nil {
		return nil, err
	}
	_, allStats, err := sess.RecordWith(ctx, allPlan, nil)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "Adaptive",
		Title: "adaptive refinement on the uServer (exp 3): replay runs vs bits/run per generation",
		Header: []string{"gen", "strategy", "instr. locations", "bits/run",
			"replay runs", "replay time", "reproduced"},
	}
	for _, pt := range tr.Points {
		t.AddRow(fmt.Sprintf("%d", pt.Generation),
			shorten(pt.Plan.Strategy, 40),
			fmt.Sprintf("%d", pt.Plan.NumInstrumented()),
			fmt.Sprintf("%d", pt.OverheadBits),
			fmt.Sprintf("%d", pt.ReplayRuns),
			fmtDur(pt.ReplayTime),
			fmt.Sprintf("%v", pt.Reproduced))
	}
	t.AddRow("-", "all (bar)", fmt.Sprintf("%d", allPlan.NumInstrumented()),
		fmt.Sprintf("%d", allStats.TraceBits), "-", "-", "-")

	status := "converged"
	if !tr.Converged {
		status = "NOT converged"
	}
	final := tr.Final()
	t.Notes = append(t.Notes,
		fmt.Sprintf("%s: %s", status, tr.Reason),
		fmt.Sprintf("paper's claim: replay runs drop across generations (here %d -> %d) while bits/run stay far under all-branches (%d vs %d)",
			tr.Points[0].ReplayRuns, final.ReplayRuns, final.OverheadBits, allStats.TraceBits))

	if c.AdaptiveTrajectoryOut != "" {
		if err := tr.Save(c.AdaptiveTrajectoryOut); err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes, "trajectory JSON written to "+c.AdaptiveTrajectoryOut)
	}
	if c.AdaptiveProfileOut != "" && final.Result != nil && final.Result.Profile != nil {
		if err := final.Result.Profile.Save(c.AdaptiveProfileOut); err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes, "final-generation search profile written to "+c.AdaptiveProfileOut)
	}
	return t, nil
}

func shorten(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
