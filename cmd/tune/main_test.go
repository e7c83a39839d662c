package main

import (
	"context"
	"testing"

	"pathlog"
	"pathlog/internal/apps"
	"pathlog/internal/instrument"
)

// TestParseStrategySpellings checks that every -strategy spelling is the
// bare composition it stands for: the same name, so a published plan
// envelope carries the composition's label, and the same branch set.
func TestParseStrategySpellings(t *testing.T) {
	ctx := context.Background()
	s, err := apps.ScenarioByName("paste")
	if err != nil {
		t.Fatal(err)
	}
	in, err := pathlog.SessionOf(s, pathlog.WithDynamicBudget(6, 0)).Analyze(ctx)
	if err != nil {
		t.Fatal(err)
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
	}{
		{"none", pathlog.None()},
		{"dynamic", pathlog.Dynamic()},
		{"static", pathlog.Static()},
		{"dynamic+static", pathlog.Union(pathlog.Dynamic(), pathlog.StaticResidue())},
		{"all", pathlog.All()},
		{"static-residue", pathlog.StaticResidue()},
	}
	for _, c := range cases {
		strat, err := parseStrategy(c.spelling)
		if err != nil {
			t.Fatalf("%s: %v", c.spelling, err)
		}
		got, want := plan(strat), plan(c.bare)
		if got.Strategy != c.bare.Name() {
			t.Errorf("%s: plan labelled %q, want %q", c.spelling, got.Strategy, c.bare.Name())
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Errorf("%s: fingerprint %s, want %s (the bare composition's)", c.spelling, got.Fingerprint(), want.Fingerprint())
		}
	}
	if _, err := parseStrategy("dynamic+all"); err == nil {
		t.Error("unknown spelling accepted")
	}
}
