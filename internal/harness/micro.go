package harness

import (
	"context"
	"fmt"
	"time"

	"pathlog"
	"pathlog/internal/apps"
	"pathlog/internal/instrument"
)

// MicroLoop reproduces the first §5.1 microbenchmark: a counting loop run
// uninstrumented and with all branches logged. The paper measures 17
// instructions / ~3ns per instrumented branch and 107% total overhead; the
// harness reports the same quantities for this VM.
func (c Config) MicroLoop(ctx context.Context) (*Table, error) {
	s := apps.MicroLoopScenario(c.MicroLoopIters)
	sess := c.session(s)
	// Neither plan consults an analysis, so none runs.
	pc := instrument.NewPlanContext(s.Prog, instrument.Inputs{}, false)
	none, err := pathlog.None().Plan(ctx, pc)
	if err != nil {
		return nil, err
	}
	all, err := pathlog.All().Plan(ctx, pc)
	if err != nil {
		return nil, err
	}

	baseline, baseStats, err := sess.MeasureOverhead(ctx, none, c.OverheadRounds)
	if err != nil {
		return nil, err
	}
	logged, allStats, err := sess.MeasureOverhead(ctx, all, c.OverheadRounds)
	if err != nil {
		return nil, err
	}

	perBranch := time.Duration(0)
	if allStats.InstrumentedExecs > 0 {
		perBranch = (logged - baseline) / time.Duration(allStats.InstrumentedExecs)
	}
	t := &Table{
		ID:    "Micro 1",
		Title: fmt.Sprintf("counting loop, %d iterations", c.MicroLoopIters),
		Header: []string{"config", "cpu time", "rel cpu", "proj. native overhead",
			"branch execs", "logged bits", "flushes"},
	}
	t.AddRow("none", fmtDur(baseline), "100%", "+0%",
		fmt.Sprintf("%d", baseStats.BranchExecs), "0", "0")
	t.AddRow("all branches", fmtDur(logged), relCPU(logged, baseline),
		projectedOverhead(allStats.TraceBits, allStats.Steps),
		fmt.Sprintf("%d", allStats.BranchExecs),
		fmt.Sprintf("%d", allStats.TraceBits),
		fmt.Sprintf("%d", allStats.Flushes))
	t.Notes = append(t.Notes,
		fmt.Sprintf("per-instrumented-branch cost: %s (paper: ~3ns native)", perBranch),
		fmt.Sprintf("total overhead: %s (paper: 107%%)", fmtPct(overheadPct(logged, baseline))))
	return t, nil
}

// MicroFib reproduces the second §5.1 microbenchmark: Listing 1 under all
// five configurations. The selective methods instrument only the two option
// branches, so their overhead is negligible; all-branches pays per loop
// iteration (the paper's 110%).
func (c Config) MicroFib(ctx context.Context) (*Table, error) {
	s := apps.MicroFibScenario('b') // fibonacci(40): the longer loop
	an := c.analysis("micro-fib/60", s, pathlog.WithDynamicBudget(60, 0))
	t, err := overheadTable(ctx, "Micro 2", "Listing 1 (fibonacci) under all configurations",
		an, c.session(s), false, c.SmallWorkloadRounds)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"paper: selective methods log exactly the 2 option branches; all branches suffers ~110%",
		"VM wall time hides logging cost at this scale; the projected column rescales to native cost (see harness.go)")
	return t, nil
}
