package harness

import (
	"context"
	"fmt"

	"pathlog/internal/apps"
	"pathlog/internal/lang"
)

// healthyMkdir returns a non-crashing mkdir workload for branch-behavior and
// overhead measurements (Figures 1 and 2 profile normal runs).
func (c Config) healthyMkdir() (*apps.Scenario, error) {
	s, err := apps.CoreutilScenario("mkdir", c.CoreutilArgLen)
	if err != nil {
		return nil, err
	}
	s.UserBytes = map[string][]byte{
		"arg0": []byte("-p"),
		"arg1": []byte("a/b"),
		"arg2": []byte("-v"),
	}
	return s, nil
}

// Figure1 reproduces the mkdir branch-behavior histogram: per branch
// location, total executions and symbolic-condition executions of a sample
// run. The paper's two assumptions must be visible in the data: few
// locations carry all symbolic executions, and each location is either
// always symbolic or always concrete.
func (c Config) Figure1(ctx context.Context) (*Table, error) {
	s, err := c.healthyMkdir()
	if err != nil {
		return nil, err
	}
	rows, err := branchHistogram(ctx, s)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "Figure 1",
		Title:  "executions per branch location, sample run of mkdir",
		Header: []string{"branch", "kind", "where", "execs", "symbolic execs"},
	}
	mixedApp, mixedLib, withSym := 0, 0, 0
	for _, r := range rows {
		b := s.Prog.Branches[r.id]
		t.AddRow(fmt.Sprintf("b%d", r.id), b.Kind.String(),
			fmt.Sprintf("%s@%s:%d", b.Func, b.Pos.Unit, b.Pos.Line),
			fmt.Sprintf("%d", r.execs), fmt.Sprintf("%d", r.symExecs))
		if r.symExecs > 0 {
			withSym++
			if r.symExecs < r.execs {
				if b.Region == lang.RegionLib {
					mixedLib++
				} else {
					mixedApp++
				}
			}
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("branch locations executed: %d; with symbolic executions: %d",
			len(rows), withSym),
		fmt.Sprintf("application locations mixing symbolic and concrete executions: %d (paper: black bars fully cover gray bars)", mixedApp),
		fmt.Sprintf("library locations mixing: %d (paper: library bars \"almost but not completely\" covered)", mixedLib))
	return t, nil
}

// Figure2 reproduces mkdir's normalized CPU time under the four
// instrumentation methods (plus none). The paper: dynamic, dynamic+static
// and static are near-identical; all-branches pays ~31%.
func (c Config) Figure2(ctx context.Context) (*Table, error) {
	s, err := c.healthyMkdir()
	if err != nil {
		return nil, err
	}
	t, err := overheadTable(ctx, "Figure 2", "mkdir CPU time, normalized to the uninstrumented version",
		c.coreutilAnalysis(s), c.session(s), true, c.SmallWorkloadRounds)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"paper: dynamic ≈ dynamic+static ≈ static; all branches slowest (~131%)")
	return t, nil
}

// Table1 reproduces the coreutils bug-replay times: all four programs under
// all four methods (the paper reports 1-1.5s, identical across methods).
func (c Config) Table1(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:     "Table 1",
		Title:  "time to replay a real bug in four coreutils programs",
		Header: []string{"program", "config", "replay time", "runs", "reproduced"},
	}
	for _, name := range apps.CoreutilNames() {
		s, err := apps.CoreutilScenario(name, c.CoreutilArgLen)
		if err != nil {
			return nil, err
		}
		if err := c.methodRows(ctx, c.coreutilAnalysis(s), s, name, t, nil); err != nil {
			return nil, err
		}
	}
	t.Notes = append(t.Notes,
		"paper: ~1-1.5s per program, same for all four configurations; ESD took 10-15s")
	return t, nil
}
