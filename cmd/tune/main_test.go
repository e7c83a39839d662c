package main

import (
	"context"
	"testing"

	"pathlog"
	"pathlog/internal/apps"
	"pathlog/internal/concolic"
	"pathlog/internal/instrument"
	"pathlog/internal/static"
)

// TestParseStrategySpellings checks that every -strategy spelling plans the
// same branch set as the bare composition it stands for, and that a method
// spelling tags its plan with the method, so a published plan envelope
// names the method it was built under.
func TestParseStrategySpellings(t *testing.T) {
	ctx := context.Background()
	s, err := apps.ScenarioByName("paste")
	if err != nil {
		t.Fatal(err)
	}
	in := instrument.Inputs{
		Dynamic: apps.AnalysisScenarioFor("paste", s).AnalyzeDynamicContext(ctx, concolic.Options{MaxRuns: 6}),
		Static:  s.AnalyzeStatic(static.Options{}),
	}
	pc := instrument.NewPlanContext(s.Prog, in, true)
	plan := func(st pathlog.Strategy) *pathlog.Plan {
		t.Helper()
		p, err := st.Plan(ctx, pc)
		if err != nil {
			t.Fatalf("%s: %v", st.Name(), err)
		}
		return p
	}
	cases := []struct {
		spelling string
		bare     pathlog.Strategy
		method   pathlog.Method
	}{
		{"none", pathlog.None(), pathlog.MethodNone},
		{"dynamic", pathlog.Dynamic(), pathlog.MethodDynamic},
		{"static", pathlog.Static(), pathlog.MethodStatic},
		{"dynamic+static", pathlog.Union(pathlog.Dynamic(), pathlog.StaticResidue()), pathlog.MethodDynamicStatic},
		{"all", pathlog.All(), pathlog.MethodAll},
		{"static-residue", pathlog.StaticResidue(), pathlog.MethodNone},
	}
	for _, c := range cases {
		strat, err := parseStrategy(c.spelling)
		if err != nil {
			t.Fatalf("%s: %v", c.spelling, err)
		}
		got, want := plan(strat), plan(c.bare)
		if got.Method != c.method {
			t.Errorf("%s: plan tagged method %q, want %q", c.spelling, got.Method, c.method)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Errorf("%s: fingerprint %s, want %s (the bare composition's)", c.spelling, got.Fingerprint(), want.Fingerprint())
		}
	}
	if _, err := parseStrategy("dynamic+all"); err == nil {
		t.Error("unknown spelling accepted")
	}
}
