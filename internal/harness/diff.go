package harness

import (
	"context"
	"fmt"

	"pathlog/internal/apps"
)

// Figure5 reproduces diff's normalized CPU time under the four methods.
func (c Config) Figure5(ctx context.Context) (*Table, error) {
	an, err := c.diffAnalysis()
	if err != nil {
		return nil, err
	}
	s, err := apps.DiffExperimentScenario(1)
	if err != nil {
		return nil, err
	}
	t, err := overheadTable(ctx, "Figure 5", "diff CPU time, normalized to the uninstrumented version",
		an, c.session(s), true, c.OverheadRounds)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"paper: dynamic and dynamic+static best (~135%); dynamic found 440 of 8840 branches symbolic,",
		"static 4292, dynamic+static 3432")
	return t, nil
}

// Tables6and7 reproduces the diff replay times (Table 6) and the
// logged/not-logged symbolic branch statistics (Table 7) for the two file
// comparison scenarios. The paper: dynamic never finishes (inf); the other
// three configurations replay in 1s / 12s with zero unlogged symbolic
// branches.
func (c Config) Tables6and7(ctx context.Context) (*Table, *Table, error) {
	an, err := c.diffAnalysis()
	if err != nil {
		return nil, nil, err
	}
	t6 := &Table{
		ID:     "Table 6",
		Title:  "diff bug reproduction times, two input scenarios",
		Header: []string{"exp", "config", "replay time", "runs", "reproduced"},
	}
	t7 := &Table{
		ID:     "Table 7",
		Title:  "diff symbolic branch locations/executions logged and not logged",
		Header: []string{"exp", "config", "logged locs/execs", "NOT logged locs/execs"},
	}
	for exp := 1; exp <= len(apps.DiffExperiments); exp++ {
		s, err := apps.DiffExperimentScenario(exp)
		if err != nil {
			return nil, nil, err
		}
		if err := c.methodRows(ctx, an, s, fmt.Sprintf("%d", exp), t6, t7); err != nil {
			return nil, nil, err
		}
	}
	t6.Notes = append(t6.Notes,
		"paper: dynamic inf on both scenarios; dynamic+static, static, all branches: 1s and 12s")
	t7.Notes = append(t7.Notes,
		"paper: dynamic leaves tens of symbolic locations unlogged (millions of executions);",
		"the other three configurations leave none")
	return t6, t7, nil
}
