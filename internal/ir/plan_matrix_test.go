package ir_test

import (
	"context"
	"fmt"
	"testing"

	"pathlog/internal/apps"
	"pathlog/internal/concolic"
	"pathlog/internal/core"
	"pathlog/internal/instrument"
	"pathlog/internal/replay"
	"pathlog/internal/static"
)

// planMatrixRow bounds the serial search of uServer experiments 1-5 under
// one plan, with the recorded syscall log (syslog) or with it stripped.
// maxRuns[i] is the run count experiment i+1 took when a divergent logged
// bit still aborted its run (each divergence cost one run and one solve);
// 0 means that search did not reproduce within planMatrixBudget, so there
// is nothing to guard and the case is not run.
type planMatrixRow struct {
	strategy instrument.Strategy
	syslog   bool
	maxRuns  [5]int
}

// planMatrixBudget is the run budget of every matrix search.
const planMatrixBudget = 3000

func planMatrix() []planMatrixRow {
	var rows []planMatrixRow
	for _, syslog := range []bool{true, false} {
		b21 := [5]int{30, 77, 0, 86, 189}
		if !syslog {
			b21[4] = 0
		}
		rows = append(rows,
			planMatrixRow{instrument.Budgeted(instrument.All(), 21), syslog, b21},
			planMatrixRow{instrument.Budgeted(instrument.All(), 42), syslog, [5]int{30, 79, 0, 96, 197}},
			planMatrixRow{instrument.StrategyForMethod(instrument.MethodDynamic), syslog, [5]int{30, 80, 87, 98, 197}},
			planMatrixRow{instrument.StrategyForMethod(instrument.MethodDynamicStatic), syslog, [5]int{30, 80, 88, 98, 204}},
			planMatrixRow{instrument.StrategyForMethod(instrument.MethodAll), syslog, [5]int{30, 80, 88, 98, 204}},
		)
	}
	return rows
}

// TestPlanMatrixNeverNeedsMoreRuns is the decision rule of following the
// log past a divergence: over the uServer experiments, from a plan that
// logs little (budgeted(all,21)) to one that logs every branch, no search
// may need more runs than the abort-on-divergence search did, and every
// case that reproduced then must still reproduce with an input that
// verifies. The plans come from the set-up analysis budget (60 concolic
// runs); the syscall log is stripped for the model-mode search of §3.3.
func TestPlanMatrixNeverNeedsMoreRuns(t *testing.T) {
	ctx := context.Background()
	scns := make([]*core.Scenario, 5)
	for i := range scns {
		scn, err := apps.ScenarioByName(fmt.Sprintf("userver-exp%d", i+1))
		if err != nil {
			t.Fatal(err)
		}
		scns[i] = scn
	}
	// Every experiment runs the one uServer program, so one analysis
	// serves them all (pinnedAnalyses shows the identical fingerprints).
	an := apps.AnalysisScenarioFor(scns[0].Name, scns[0])
	in := instrument.Inputs{
		Dynamic: an.AnalyzeDynamicContext(ctx, concolic.Options{MaxRuns: analysisRuns(scns[0].Name)}),
		Static:  scns[0].AnalyzeStatic(static.Options{LibAsSymbolic: true}),
	}
	for _, row := range planMatrix() {
		mode := "syslog"
		if !row.syslog {
			mode = "nosyslog"
		}
		for i, scn := range scns {
			bound := row.maxRuns[i]
			t.Run(fmt.Sprintf("%s/%s/%s", row.strategy.Name(), mode, scn.Name), func(t *testing.T) {
				if bound == 0 {
					t.Skip("not reproduced within the budget before follow-the-log")
				}
				plan, err := row.strategy.Plan(ctx, instrument.NewPlanContext(scn.Prog, in, true))
				if err != nil {
					t.Fatal(err)
				}
				rec, _, err := scn.RecordContext(ctx, plan)
				if err != nil {
					t.Fatal(err)
				}
				if !row.syslog {
					rec = core.StripSyslog(rec)
				}
				res := scn.ReplayContext(ctx, rec, replay.Options{MaxRuns: planMatrixBudget})
				if !res.Reproduced || !scn.VerifyInput(res.InputBytes, rec.Crash) {
					t.Fatalf("lost a reproduction: reproduced %v after %d runs", res.Reproduced, res.Runs)
				}
				if res.Runs > bound {
					t.Errorf("%d runs, more than the %d before follow-the-log", res.Runs, bound)
				}
			})
		}
	}
}
