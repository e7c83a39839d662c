package concolic_test

import (
	"context"
	"testing"

	"pathlog/internal/apps"
	"pathlog/internal/concolic"
	"pathlog/internal/ir"
	"pathlog/internal/world"
)

// TestSliceRelevantOnRealPaths holds the slicer to the map-based reference
// on every per-run path condition of the uServer analysis and of diff
// exp1's, at the budgets the end-to-end benchmark analyzes them with.
func TestSliceRelevantOnRealPaths(t *testing.T) {
	diff, err := apps.DiffExperimentScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		s    *apps.Scenario
		runs int
	}{
		{"userver", apps.UServerAnalysisScenario(), 60},
		{"diff-exp1", diff, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			engine, check := concolic.SliceCheckingEngine(ir.Engine)
			opts := concolic.Options{MaxRuns: tc.runs, Engine: engine}
			rep := concolic.New(tc.s.Prog, tc.s.Spec, world.NewRegistry(tc.s.Spec), opts).Explore(context.Background())
			checked, err := check()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Runs != tc.runs || checked == 0 {
				t.Fatalf("%d runs, %d slices compared", rep.Runs, checked)
			}
			t.Logf("%d runs, %d slices compared", rep.Runs, checked)
		})
	}
}
