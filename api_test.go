package pathlog

import (
	"context"
	"testing"
	"time"
)

const apiTestSrc = `
int main() {
	char a[8];
	getarg(0, a, 8);
	if (a[0] == 'G' && a[1] == 'O') {
		crash(3);
	}
	print_str("fine");
	return 0;
}
`

func apiScenario(t *testing.T) *Scenario {
	t.Helper()
	prog, err := Compile(Unit{Name: "t.mc", Source: apiTestSrc})
	if err != nil {
		t.Fatal(err)
	}
	return &Scenario{
		Name:      "api",
		Prog:      prog,
		Spec:      &Spec{Args: []Stream{ArgStream(0, "xx", 4)}},
		UserBytes: map[string][]byte{"arg0": []byte("GO")},
	}
}

func TestCompileError(t *testing.T) {
	if _, err := Compile(Unit{Name: "bad.mc", Source: "int main( {"}); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := Compile(Unit{Name: "nomain.mc", Source: "int f() { return 0; }"}); err == nil {
		t.Fatal("expected link error")
	}
}

func TestCompileWithLibUnit(t *testing.T) {
	prog, err := Compile(
		Unit{Name: "app.mc", Source: `int main() { return helper(); }`},
		Unit{Name: "lib.mc", Lib: true, Source: `int helper() { return 7; }`},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.FuncList) != 2 {
		t.Fatalf("functions: %d", len(prog.FuncList))
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	ctx := context.Background()
	sess := SessionOf(apiScenario(t), WithDynamicBudget(50, 0), WithSyscallLog(),
		WithReplayBudget(500, 10*time.Second))
	for _, m := range Methods {
		plan, err := sess.PlanWith(ctx, StrategyForMethod(m))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		rec, stats, err := sess.RecordWith(ctx, plan, nil)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if rec == nil {
			t.Fatalf("%v: no recording", m)
		}
		if stats.TraceBits != int64(stats.InstrumentedExecs) {
			t.Fatalf("%v: bits/execs mismatch", m)
		}
		res, err := sess.Replay(ctx, rec)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !res.Reproduced {
			t.Fatalf("%v: not reproduced", m)
		}
		got := res.InputBytes["arg0"]
		if got[0] != 'G' || got[1] != 'O' {
			t.Fatalf("%v: input %q", m, got)
		}
	}
}

func TestStripSyscallLogFacade(t *testing.T) {
	ctx := context.Background()
	sess := SessionOf(apiScenario(t), WithDynamicBudget(30, 0), WithSyscallLog(),
		WithReplayBudget(500, 0))
	plan, err := sess.PlanWith(ctx, All())
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := sess.RecordWith(ctx, plan, nil)
	if err != nil || rec == nil {
		t.Fatal(err)
	}
	bare := StripSyscallLog(rec)
	if bare.SysLog != nil {
		t.Fatal("syslog not stripped")
	}
	res, err := sess.Replay(ctx, bare)
	if err != nil || !res.Reproduced {
		t.Fatalf("model-mode replay failed: %v", err)
	}
}

func TestMethodNamesStable(t *testing.T) {
	want := map[Method]string{
		MethodNone:          "none",
		MethodDynamic:       "dynamic",
		MethodStatic:        "static",
		MethodDynamicStatic: "dynamic+static",
		MethodAll:           "all branches",
	}
	for m, name := range want {
		if m.String() != name {
			t.Errorf("%d: %q", m, m.String())
		}
	}
	if len(Methods) != 4 {
		t.Errorf("methods: %d", len(Methods))
	}
}
