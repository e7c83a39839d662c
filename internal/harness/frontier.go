package harness

import (
	"context"
	"fmt"
	"os"

	"pathlog"
	"pathlog/internal/apps"
	"pathlog/internal/obs"
)

// frontierLadder is the Budgeted ladder the frontier experiment measures
// on top of the default sweep: k of the uServer's 168 branch locations,
// from the syscall-log-only plan (0 bits) to every branch.
var frontierLadder = []int{0, 5, 21, 42, 60, 84, 120, 168}

// Frontier measures the paper's titular balance on the uServer. For each
// of the five input scenarios, Session.Frontier records the bug report
// under every plan of the default sweep plus the Budgeted ladder over all
// branch locations (syscall logging on, HC analysis) and replays it under
// the replay budget. Every row is a measurement, read back from the plan
// store the sweep files it in: the bits the user run logged, the runs the
// search took, and whether it reproduced. "front" marks each scenario's
// Pareto-optimal plans.
func (c Config) Frontier(ctx context.Context) (*Table, error) {
	dir, err := os.MkdirTemp("", "pathlog-frontier-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	reg := obs.NewRegistry()

	t := &Table{
		ID:    "Frontier",
		Title: "measured overhead/debug-time frontier, uServer exps 1-5 (the paper's titular balance)",
		Header: []string{"exp", "strategy", "locs", "measured bits", "replay runs",
			"reproduced", "front", "fingerprint"},
	}
	rows, reproduced, fronts := 0, 0, 0
	for exp := 1; exp <= len(apps.UServerExperiments); exp++ {
		s, err := apps.UServerScenario(exp, 72)
		if err != nil {
			return nil, err
		}
		sess := uServerSession(s, c.UServerAnalysisRunsHC,
			pathlog.WithReplayBudget(c.ReplayMaxRuns, c.ReplayBudget),
			pathlog.WithPlanStore(dir),
			pathlog.WithObserver(&pathlog.Observer{Reg: reg}),
		)
		sweep := pathlog.DefaultSweep(len(s.Prog.Branches))
		for _, k := range frontierLadder {
			sweep = append(sweep, pathlog.Budgeted(pathlog.All(), k))
		}
		points, err := sess.Frontier(ctx, sweep...)
		if err != nil {
			return nil, fmt.Errorf("exp%d: %w", exp, err)
		}
		front := make(map[string]bool, len(points))
		for _, pt := range points {
			front[pt.Plan.Fingerprint()] = true
		}
		st, err := sess.PlanStore()
		if err != nil {
			return nil, err
		}
		measured, err := st.Measured(s.Prog.Hash(), sess.WorkloadHash())
		if err != nil {
			return nil, err
		}
		for _, mp := range measured {
			plan, err := st.GetPlan(mp.Fingerprint)
			if err != nil {
				return nil, err
			}
			mark := ""
			if front[mp.Fingerprint] {
				mark = "yes"
				fronts++
			}
			rows++
			if mp.Reproduced {
				reproduced++
			}
			t.AddRow(fmt.Sprintf("%d", exp), shorten(mp.Strategy, 34),
				fmt.Sprintf("%d", plan.NumInstrumented()),
				fmt.Sprintf("%d", mp.OverheadBits),
				fmt.Sprintf("%d", mp.ReplayRuns),
				fmt.Sprintf("%v", mp.Reproduced), mark, mp.Fingerprint)
		}
	}

	var dups int64
	for _, ctr := range reg.Snapshot().Counters {
		if ctr.Name == "pathlog_replay_duplicate_paths_total" {
			dups = ctr.Value
		}
	}
	status := "every rung reproduced"
	if reproduced < rows {
		status = "NOT every rung reproduced"
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%s: %d of %d measured plans reproduced within %d replay runs; %d are Pareto-optimal for their scenario",
			status, reproduced, rows, c.ReplayMaxRuns, fronts),
		fmt.Sprintf("each search expands each path once: %d run(s) landed on an already-expanded path and queued nothing", dups))
	return t, nil
}
