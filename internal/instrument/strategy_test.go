package instrument

import (
	"context"
	"fmt"
	"testing"

	"pathlog/internal/concolic"
	"pathlog/internal/lang"
)

// fakeInputs labels the 5-branch fakeProgram with a profile exercising
// every §2.3 case: b0 visited symbolic, b2 visited concrete (statically
// symbolic — dynamic evidence must win), b1 unvisited statically symbolic,
// b3/b4 unvisited statically concrete.
func fakeInputs() Inputs {
	return Inputs{
		Dynamic: &concolic.Report{
			Runs: 4,
			Labels: map[lang.BranchID]concolic.Label{
				0: concolic.Symbolic,
				2: concolic.Concrete,
			},
			ExecCount:    map[lang.BranchID]int64{0: 8, 2: 40},
			SymExecCount: map[lang.BranchID]int64{0: 8},
		},
		Static: statics(0, 1, 2),
	}
}

func planOf(t *testing.T, s Strategy, pc *PlanContext) *Plan {
	t.Helper()
	p, err := s.Plan(context.Background(), pc)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	return p
}

// TestStrategyForMethodIsTheComposition checks that a method name plans
// through the composition it names, under that composition's label: a plan
// carries one label, whichever route built it.
func TestStrategyForMethodIsTheComposition(t *testing.T) {
	pc := NewPlanContext(fakeProgram(t), fakeInputs(), true)
	for m, want := range map[Method]string{
		MethodNone:          "none",
		MethodDynamic:       "dynamic",
		MethodStatic:        "static",
		MethodDynamicStatic: "union(dynamic,static-residue)",
		MethodAll:           "all",
	} {
		s := StrategyForMethod(m)
		if s.Name() != want {
			t.Errorf("%v: strategy %q, want %q", m, s.Name(), want)
		}
		if p := planOf(t, s, pc); p.Strategy != want {
			t.Errorf("%v: plan labelled %q, want %q", m, p.Strategy, want)
		}
	}
}

func TestNoneNeverLogsSyscalls(t *testing.T) {
	pc := NewPlanContext(fakeProgram(t), fakeInputs(), true)
	p := planOf(t, None(), pc)
	if p.LogSyscalls || p.NumInstrumented() != 0 || p.Instruments() {
		t.Fatalf("none plan: %+v", p)
	}
}

func TestUnion(t *testing.T) {
	pc := NewPlanContext(fakeProgram(t), fakeInputs(), false)
	// dynamic = {0}; static = {0,1,2}.
	u := planOf(t, Union(Dynamic(), Static()), pc)
	if got := fmt.Sprint(u.IDs()); got != "[0 1 2]" {
		t.Errorf("union: %s", got)
	}
}

func TestBudgetedKeepsTopKDeterministically(t *testing.T) {
	prog := fakeProgram(t)
	pc := NewPlanContext(prog, fakeInputs(), false)
	full := planOf(t, All(), pc)
	for k := 0; k <= len(prog.Branches)+1; k++ {
		s := Budgeted(All(), k)
		a := planOf(t, s, pc)
		b := planOf(t, s, pc)
		want := k
		if want > full.NumInstrumented() {
			want = full.NumInstrumented()
		}
		if a.NumInstrumented() != want {
			t.Errorf("k=%d: instruments %d", k, a.NumInstrumented())
		}
		if fmt.Sprint(a.IDs()) != fmt.Sprint(b.IDs()) {
			t.Errorf("k=%d: nondeterministic selection", k)
		}
		// The kept set must be a subset of the inner strategy's set.
		for _, id := range a.IDs() {
			if !full.Instrumented[id] {
				t.Errorf("k=%d: b%d not in inner set", k, id)
			}
		}
	}
	// Budgets must nest: the k-set is contained in the (k+1)-set, so a
	// budget sweep walks one monotone curve.
	prev := map[lang.BranchID]bool{}
	for k := 1; k <= len(prog.Branches); k++ {
		p := planOf(t, Budgeted(All(), k), pc)
		for id := range prev {
			if !p.Instrumented[id] {
				t.Errorf("k=%d dropped b%d kept at k=%d", k, id, k-1)
			}
		}
		prev = p.Instrumented
	}
}

func TestStrategyErrorsWithoutReports(t *testing.T) {
	pc := NewPlanContext(fakeProgram(t), Inputs{}, false)
	for _, s := range []Strategy{Dynamic(), Static(), StaticResidue(),
		Union(Dynamic()), Budgeted(Static(), 2)} {
		if _, err := s.Plan(context.Background(), pc); err == nil {
			t.Errorf("%s: no error without analysis reports", s.Name())
		}
	}
	// All and None need no analysis.
	for _, s := range []Strategy{All(), None()} {
		if _, err := s.Plan(context.Background(), pc); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

func TestStrategyHonorsContext(t *testing.T) {
	pc := NewPlanContext(fakeProgram(t), fakeInputs(), false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := All().Plan(ctx, pc); err == nil {
		t.Error("cancelled context must abort planning")
	}
}

func TestCostModelOrdering(t *testing.T) {
	prog := fakeProgram(t)
	in := fakeInputs()
	pc := NewPlanContext(prog, in, true)
	none := planOf(t, None(), pc)
	dyn := planOf(t, Dynamic(), pc)
	ds := planOf(t, Union(Dynamic(), StaticResidue()), pc)
	all := planOf(t, All(), pc)

	// Overhead rises with instrumentation.
	if !(none.EstimatedOverhead() < dyn.EstimatedOverhead() &&
		dyn.EstimatedOverhead() < ds.EstimatedOverhead() &&
		ds.EstimatedOverhead() < all.EstimatedOverhead()) {
		t.Errorf("overhead ordering: none=%.1f dyn=%.1f ds=%.1f all=%.1f",
			none.EstimatedOverhead(), dyn.EstimatedOverhead(),
			ds.EstimatedOverhead(), all.EstimatedOverhead())
	}
	if !all.Cost.Modeled {
		t.Error("profiled estimate not marked modeled")
	}
	// Without a profile the estimate is structural, and says so.
	bare := NewPlanContext(prog, Inputs{}, false)
	if p := planOf(t, All(), bare); p.Cost.Modeled {
		t.Error("unprofiled estimate marked modeled")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	prog := fakeProgram(t)
	in := fakeInputs()
	sys, noSys := NewPlanContext(prog, in, true), NewPlanContext(prog, in, false)
	base := planOf(t, Static(), sys)
	same := planOf(t, Static(), sys)
	if base.Fingerprint() != same.Fingerprint() {
		t.Error("identical plans hash differently")
	}
	if base.Fingerprint() == planOf(t, Static(), noSys).Fingerprint() {
		t.Error("syscall flag not covered by fingerprint")
	}
	if base.Fingerprint() == planOf(t, Dynamic(), sys).Fingerprint() {
		t.Error("branch set not covered by fingerprint")
	}
	// A different program changes the hash even under the same branch set.
	other := &Plan{Instrumented: base.Instrumented, LogSyscalls: true, ProgHash: "deadbeef"}
	if base.Fingerprint() == other.Fingerprint() {
		t.Error("program hash not covered by fingerprint")
	}
}

func TestValidateForProgram(t *testing.T) {
	prog := fakeProgram(t)
	good := planOf(t, All(), NewPlanContext(prog, fakeInputs(), false))
	if err := good.ValidateForProgram(prog); err != nil {
		t.Fatal(err)
	}
	bad := &Plan{Instrumented: map[lang.BranchID]bool{99: true}}
	if err := bad.ValidateForProgram(prog); err == nil {
		t.Error("out-of-range branch ID accepted")
	}
	wrongProg := &Plan{Instrumented: map[lang.BranchID]bool{0: true}, ProgHash: "not-this-program"}
	if err := wrongProg.ValidateForProgram(prog); err == nil {
		t.Error("wrong program hash accepted")
	}
}
