package instrument

import (
	"fmt"
	"testing"

	"pathlog/internal/concolic"
	"pathlog/internal/lang"
	"pathlog/internal/static"
)

// fakeProgram builds a program with n branches for plan-combination tests.
func fakeProgram(t *testing.T) *lang.Program {
	t.Helper()
	u, err := lang.ParseUnit("t", lang.RegionApp, `
int main() {
	char a[4];
	getarg(0, a, 4);
	if (a[0] == 'x') { }   // b0
	if (a[1] == 'y') { }   // b1
	int i;
	for (i = 0; i < 3; i++) { }  // b2
	while (i > 0) { i--; }       // b3
	if (a[2] == 'z') { }   // b4
	return 0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := lang.Link([]*lang.Unit{u})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Branches) != 5 {
		t.Fatalf("want 5 branches, got %d", len(p.Branches))
	}
	return p
}

func labels(m map[lang.BranchID]concolic.Label) *concolic.Report {
	return &concolic.Report{Labels: m}
}

func statics(ids ...lang.BranchID) *static.Report {
	m := make(map[lang.BranchID]bool)
	for _, id := range ids {
		m[id] = true
	}
	return &static.Report{SymbolicBranches: m}
}

// methodCases is the literal branch set each §2.3 method must plan over
// fakeProgram, given the inputs of the case. None and All need no analysis;
// dynamic+static shows a concrete dynamic label (b2) overriding a symbolic
// static one and an unvisited statically-symbolic branch (b1) joining in.
var methodCases = map[Method]struct {
	in   Inputs
	want string // fmt.Sprint of the sorted instrumented IDs
}{
	MethodNone: {Inputs{}, "[]"},
	MethodAll:  {Inputs{}, "[0 1 2 3 4]"},
	MethodDynamic: {Inputs{Dynamic: labels(map[lang.BranchID]concolic.Label{
		0: concolic.Symbolic,
		1: concolic.Symbolic,
		2: concolic.Concrete,
		// 3, 4 unvisited
	})}, "[0 1]"},
	MethodStatic: {Inputs{Static: statics(0, 1, 4, 2)}, "[0 1 2 4]"},
	MethodDynamicStatic: {Inputs{
		Dynamic: labels(map[lang.BranchID]concolic.Label{
			0: concolic.Symbolic,
			2: concolic.Concrete,
		}),
		Static: statics(0, 1, 2),
	}, "[0 1]"},
}

// checkMethod plans a method's case through StrategyForMethod under both
// syscall flags: the literal branch set, and syscall logging exactly when
// asked for (never for the uninstrumented baseline).
func checkMethod(t *testing.T, m Method) {
	t.Helper()
	c := methodCases[m]
	p := fakeProgram(t)
	for _, logSyscalls := range []bool{false, true} {
		plan := planOf(t, StrategyForMethod(m), NewPlanContext(p, c.in, logSyscalls))
		if got := fmt.Sprint(plan.IDs()); got != c.want {
			t.Errorf("%v (syscalls=%v): instruments %s, want %s", m, logSyscalls, got, c.want)
		}
		if want := logSyscalls && m != MethodNone; plan.LogSyscalls != want {
			t.Errorf("%v (syscalls=%v): LogSyscalls %v, want %v", m, logSyscalls, plan.LogSyscalls, want)
		}
	}
}

func TestMethodNone(t *testing.T)          { checkMethod(t, MethodNone) }
func TestMethodAll(t *testing.T)           { checkMethod(t, MethodAll) }
func TestMethodDynamic(t *testing.T)       { checkMethod(t, MethodDynamic) }
func TestMethodStatic(t *testing.T)        { checkMethod(t, MethodStatic) }
func TestMethodDynamicStatic(t *testing.T) { checkMethod(t, MethodDynamicStatic) }

func TestPlanIDsSorted(t *testing.T) {
	p := fakeProgram(t)
	plan := planOf(t, Static(), NewPlanContext(p, Inputs{Static: statics(4, 0, 2)}, false))
	ids := plan.IDs()
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 2 || ids[2] != 4 {
		t.Fatalf("ids: %v", ids)
	}
}

func TestInstrumentedIn(t *testing.T) {
	app, err := lang.ParseUnit("a", lang.RegionApp, `
int main() { if (argcount() > 0) { } return lib1(); }
`)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := lang.ParseUnit("l", lang.RegionLib, `
int lib1() { int i = 0; while (i < 2) { i++; } return i; }
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := lang.Link([]*lang.Unit{app, lib})
	if err != nil {
		t.Fatal(err)
	}
	plan := planOf(t, All(), NewPlanContext(p, Inputs{}, false))
	if plan.InstrumentedIn(p, lang.RegionApp) != 1 || plan.InstrumentedIn(p, lang.RegionLib) != 1 {
		t.Fatalf("region counts: app=%d lib=%d",
			plan.InstrumentedIn(p, lang.RegionApp), plan.InstrumentedIn(p, lang.RegionLib))
	}
}

func TestMethodString(t *testing.T) {
	names := map[Method]string{
		MethodNone: "none", MethodDynamic: "dynamic", MethodStatic: "static",
		MethodDynamicStatic: "dynamic+static", MethodAll: "all branches",
		Method(-1): "method?", Method(5): "method?",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d: %q", m, m.String())
		}
	}
}
