package harness

import (
	"context"
	"fmt"
	"time"

	"pathlog"
	"pathlog/internal/apps"
)

// Adaptive reproduces the paper's feedback-loop claim on the uServer:
// starting from a low-coverage dynamic plan whose replay blows past the
// budget, AutoBalance promotes the branches the search blames until the
// bug replays within the target, then demotes the logged branches whose
// bits never constrained the search, keeping each demotion only when
// re-measurement confirms it — replay runs drop monotonically across
// generations while recorded bits/run stay far below instrumenting all
// branches. Input scenario 3 (cookies and percent-escapes) exercises the
// parser paths a thin concolic budget misses hardest.
//
// When AdaptiveTrajectoryOut / AdaptiveProfileOut are set, the
// per-generation trajectory and the final generation's search profile are
// written as JSON artifacts (CI uploads them next to the replay bench).
func (c Config) Adaptive(ctx context.Context) (*Table, error) {
	s, err := apps.UServerScenario(3, 72)
	if err != nil {
		return nil, err
	}
	sess := uServerSession(s, c.UServerAnalysisRunsLC,
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
			"replay runs", "replay time", "reproduced", "promoted", "demoted"},
	}
	for _, pt := range tr.Points {
		t.AddRow(fmt.Sprintf("%d", pt.Generation),
			shorten(pt.Plan.Strategy, 40),
			fmt.Sprintf("%d", pt.Plan.NumInstrumented()),
			fmt.Sprintf("%.0f", pt.MeanOverheadBits),
			fmt.Sprintf("%.0f", pt.MeanReplayRuns),
			fmtDur(time.Duration(pt.MeanReplayMS*float64(time.Millisecond))),
			fmt.Sprintf("%v", pt.Reproduced == pt.Members),
			fmt.Sprintf("%d", len(pt.Promoted)),
			fmt.Sprintf("%d", len(pt.Demoted)))
	}
	t.AddRow("-", "all (bar)", fmt.Sprintf("%d", allPlan.NumInstrumented()),
		fmt.Sprintf("%d", allStats.TraceBits), "-", "-", "-", "-", "-")

	status := "converged"
	if !tr.Converged {
		status = "NOT converged"
	}
	final := tr.Final()
	t.Notes = append(t.Notes,
		fmt.Sprintf("%s: %s", status, tr.Reason),
		fmt.Sprintf("paper's claim: replay runs drop across generations (here %.0f -> %.0f) while bits/run stay far under all-branches (%.0f vs %d)",
			tr.Points[0].MeanReplayRuns, final.MeanReplayRuns, final.MeanOverheadBits, allStats.TraceBits))
	demoted, preDemotion := demotedTotal(tr), preDemotionBits(tr)
	if demoted > 0 && final.MeanOverheadBits < preDemotion && final.Reproduced == final.Members {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"demotion: the single-report loop demoted %d branch(es) with measured acceptance — %.0f bits/run (was %.0f before demoting), still reproduced in %.0f runs",
			demoted, final.MeanOverheadBits, preDemotion, final.MeanReplayRuns))
	} else {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"demotion: NOT demonstrated (demoted %d, refused %q)", demoted, tr.DemotionRefused))
	}

	if c.AdaptiveTrajectoryOut != "" {
		if err := tr.Save(c.AdaptiveTrajectoryOut); err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes, "trajectory JSON written to "+c.AdaptiveTrajectoryOut)
	}
	if c.AdaptiveProfileOut != "" && final.Outcome.Profile != nil {
		if err := final.Outcome.Profile.Save(c.AdaptiveProfileOut); err != nil {
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
