package ir_test

import (
	"context"
	"fmt"
	"testing"

	"pathlog"
	"pathlog/internal/apps"
	"pathlog/internal/core"
	"pathlog/internal/instrument"
	"pathlog/internal/ir"
	"pathlog/internal/obs"
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
	name     string
	strategy instrument.Strategy
	syslog   bool
	maxRuns  [5]int
}

// planMatrixBudget is the run budget of every matrix search.
const planMatrixBudget = 3000

func planMatrix() []planMatrixRow {
	budgeted := func(k int, syslog bool, maxRuns [5]int) planMatrixRow {
		s := instrument.Budgeted(instrument.All(), k)
		return planMatrixRow{s.Name(), s, syslog, maxRuns}
	}
	// A method row is named by its method, as the paper's tables name it.
	method := func(m instrument.Method, syslog bool, maxRuns [5]int) planMatrixRow {
		return planMatrixRow{"method:" + m.String(), instrument.StrategyForMethod(m), syslog, maxRuns}
	}
	var rows []planMatrixRow
	for _, syslog := range []bool{true, false} {
		b21 := [5]int{30, 77, 0, 86, 189}
		if !syslog {
			b21[4] = 0
		}
		rows = append(rows,
			budgeted(21, syslog, b21),
			budgeted(42, syslog, [5]int{30, 79, 0, 96, 197}),
			method(instrument.MethodDynamic, syslog, [5]int{30, 80, 87, 98, 197}),
			method(instrument.MethodDynamicStatic, syslog, [5]int{30, 80, 88, 98, 204}),
			method(instrument.MethodAll, syslog, [5]int{30, 80, 88, 98, 204}),
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
	scns := make([]*apps.Scenario, 5)
	for i := range scns {
		scn, err := apps.ScenarioByName(fmt.Sprintf("userver-exp%d", i+1))
		if err != nil {
			t.Fatal(err)
		}
		scns[i] = scn
	}
	// Every experiment runs the one uServer program, so one analysis
	// serves them all (pinnedAnalyses shows the identical fingerprints).
	in := instrument.Inputs{
		Dynamic: explore(ctx, apps.AnalysisScenarioFor(scns[0].Name, scns[0]), analysisRuns(scns[0].Name), nil),
		Static:  static.Analyze(scns[0].Prog, static.Options{LibAsSymbolic: true}),
	}
	for _, row := range planMatrix() {
		mode := "syslog"
		if !row.syslog {
			mode = "nosyslog"
		}
		for i, scn := range scns {
			bound := row.maxRuns[i]
			t.Run(fmt.Sprintf("%s/%s/%s", row.name, mode, scn.Name), func(t *testing.T) {
				if bound == 0 {
					t.Skip("not reproduced within the budget before follow-the-log")
				}
				plan, err := row.strategy.Plan(ctx, instrument.NewPlanContext(scn.Prog, in, true))
				if err != nil {
					t.Fatal(err)
				}
				rec, _, err := core.Record(ctx, nil, scn.Prog, scn.Spec, scn.UserBytes, plan)
				if err != nil {
					t.Fatal(err)
				}
				if !row.syslog {
					rec = pathlog.StripSyscallLog(rec)
				}
				res := reproduce(ctx, scn, rec, replay.Options{MaxRuns: planMatrixBudget})
				if !res.Reproduced || !verify(scn, res, rec, nil) {
					t.Fatalf("lost a reproduction: reproduced %v after %d runs", res.Reproduced, res.Runs)
				}
				if res.Runs > bound {
					t.Errorf("%d runs, more than the %d before follow-the-log", res.Runs, bound)
				}
			})
		}
	}
}

// ladderBudget is the run budget of every ladder search.
const ladderBudget = 1000

// TestLadderReproduces is the regression test of the ladder: uServer
// experiments 1-5 under budgeted(all,k) for k of the 168 branch
// locations, syscall log on. Before each path was expanded once, every
// k=5 cell and exp3 at k=21..84 exhausted this budget re-running a handful
// of paths. Every cell must reproduce with an input that verifies, and
// every run that repeated an earlier path (recomputed by pathOracle) must
// be one the engine counted in pathlog_replay_duplicate_paths_total and
// did not expand.
func TestLadderReproduces(t *testing.T) {
	ctx := context.Background()
	scns := make([]*apps.Scenario, 5)
	for i := range scns {
		scn, err := apps.ScenarioByName(fmt.Sprintf("userver-exp%d", i+1))
		if err != nil {
			t.Fatal(err)
		}
		scns[i] = scn
	}
	in := instrument.Inputs{
		Dynamic: explore(ctx, apps.AnalysisScenarioFor(scns[0].Name, scns[0]), analysisRuns(scns[0].Name), nil),
		Static:  static.Analyze(scns[0].Prog, static.Options{LibAsSymbolic: true}),
	}
	for _, k := range []int{0, 5, 21, 42, 60, 84, 120, 168} {
		strat := instrument.Budgeted(instrument.All(), k)
		for _, scn := range scns {
			t.Run(fmt.Sprintf("%s/%s", strat.Name(), scn.Name), func(t *testing.T) {
				plan, err := strat.Plan(ctx, instrument.NewPlanContext(scn.Prog, in, true))
				if err != nil {
					t.Fatal(err)
				}
				rec, _, err := core.Record(ctx, nil, scn.Prog, scn.Spec, scn.UserBytes, plan)
				if err != nil || rec == nil {
					t.Fatalf("record: %v", err)
				}
				reg := obs.NewRegistry()
				oracle := newPathOracle(ir.Engine)
				res := reproduce(ctx, scn, rec, replay.Options{MaxRuns: ladderBudget, Engine: oracle.factory, Obs: reg})
				if !res.Reproduced || !verify(scn, res, rec, nil) {
					t.Fatalf("not reproduced within %d runs: %d runs, %d duplicate paths, solver %+v",
						ladderBudget, res.Runs, res.DuplicatePaths, res.SolverStats)
				}
				var dups int64
				for _, c := range reg.Snapshot().Counters {
					if c.Name == "pathlog_replay_duplicate_paths_total" {
						dups = c.Value
					}
				}
				if int64(oracle.repeats) != dups || res.DuplicatePaths != oracle.repeats {
					t.Errorf("%d runs repeated an earlier path; the engine counted %d (scrape %d)",
						oracle.repeats, res.DuplicatePaths, dups)
				}
			})
		}
	}
}
