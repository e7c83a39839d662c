package replay

import (
	"context"
	"reflect"
	"testing"
	"time"

	"pathlog/internal/concolic"
	"pathlog/internal/instrument"
	"pathlog/internal/ir"
	"pathlog/internal/lang"
	"pathlog/internal/oskernel"
	"pathlog/internal/static"
	"pathlog/internal/trace"
	"pathlog/internal/vm"
	"pathlog/internal/world"
)

// fixture compiles a program, records a crash under a plan, and returns
// everything needed to replay.
type fixture struct {
	prog *lang.Program
	spec *world.Spec
	rec  *Recording
}

func compile(t *testing.T, src string) *lang.Program {
	t.Helper()
	u, err := lang.ParseUnit("t.mc", lang.RegionApp, src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := lang.Link([]*lang.Unit{u})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// record runs the program on userArgs under the plan and captures the log
// the way a user-site run does: the engine's logger, no branch sink.
func record(t *testing.T, prog *lang.Program, spec *world.Spec, plan *instrument.Plan, userArgs map[string][]byte) *Recording {
	t.Helper()
	userSpec, err := spec.UserSpec(userArgs)
	if err != nil {
		t.Fatal(err)
	}
	w := world.NewWorld(userSpec, world.NewRegistry(userSpec), nil)
	w.Symbolic = false
	cfg := w.KernelConfig()
	cfg.Mode = oskernel.ModeRecord
	var sysLog *oskernel.SyscallLog
	if plan.LogSyscalls {
		sysLog = oskernel.NewSyscallLog()
		cfg.Log = sysLog
		cfg.LogSyscalls = true
	}
	kern := oskernel.New(cfg)
	log := vm.Logger{Table: plan.Table(), Trace: trace.NewWriter()}
	res, err := vm.New(prog, vm.Options{Kernel: kern, Log: log}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed {
		t.Fatal("fixture run did not crash")
	}
	return &Recording{Plan: plan, Trace: log.Trace.Finish(), SysLog: sysLog, Crash: res.Crash}
}

const twoByteGuard = `
int main() {
	char a[8];
	getarg(0, a, 8);
	if (a[0] == 'P') {
		if (a[1] == 'Q') {
			crash(1);
		}
	}
	return 0;
}
`

// planFor plans a method through the composition it names, with syscall
// logging on.
func planFor(t *testing.T, prog *lang.Program, m instrument.Method, in instrument.Inputs) *instrument.Plan {
	t.Helper()
	p, err := instrument.StrategyForMethod(m).Plan(context.Background(), instrument.NewPlanContext(prog, in, true))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func buildFixture(t *testing.T, method instrument.Method) *fixture {
	prog := compile(t, twoByteGuard)
	spec := &world.Spec{Args: []world.Stream{world.ArgSpec(0, "ab", 4)}}
	analysis := concolic.New(prog, spec, world.NewRegistry(spec), concolic.Options{MaxRuns: 40})
	in := instrument.Inputs{
		Dynamic: analysis.Explore(context.Background()),
		Static:  static.Analyze(prog, static.Options{}),
	}
	plan := planFor(t, prog, method, in)
	rec := record(t, prog, spec, plan, map[string][]byte{"arg0": []byte("PQ")})
	return &fixture{prog: prog, spec: spec, rec: rec}
}

func TestReproduceWithFullLog(t *testing.T) {
	f := buildFixture(t, instrument.MethodAll)
	eng := New(f.prog, f.spec, world.NewRegistry(f.spec), f.rec, Options{MaxRuns: 200})
	res := eng.Reproduce(context.Background())
	if !res.Reproduced {
		t.Fatalf("not reproduced: %+v", res)
	}
	if res.InputBytes["arg0"][0] != 'P' || res.InputBytes["arg0"][1] != 'Q' {
		t.Fatalf("input: %q", res.InputBytes["arg0"])
	}
	if res.SymNotLoggedLocs != 0 {
		t.Errorf("all-branches replay saw unlogged symbolic branches: %d", res.SymNotLoggedLocs)
	}
	if res.SymLoggedExecs == 0 {
		t.Error("no logged symbolic executions counted")
	}
}

func TestReproduceWithEmptyPlan(t *testing.T) {
	// No branches instrumented: pure symbolic search guided only by the
	// crash site (the ESD-like degenerate case).
	prog := compile(t, twoByteGuard)
	spec := &world.Spec{Args: []world.Stream{world.ArgSpec(0, "ab", 4)}}
	plan := &instrument.Plan{
		Instrumented: map[lang.BranchID]bool{},
	}
	rec := record(t, prog, spec, plan, map[string][]byte{"arg0": []byte("PQ")})
	if rec.Trace.Len() != 0 {
		t.Fatalf("trace should be empty, got %d bits", rec.Trace.Len())
	}
	eng := New(prog, spec, world.NewRegistry(spec), rec, Options{MaxRuns: 500})
	res := eng.Reproduce(context.Background())
	if !res.Reproduced {
		t.Fatalf("not reproduced: %+v", res)
	}
	if res.SymNotLoggedLocs == 0 {
		t.Error("unlogged symbolic locations expected with an empty plan")
	}
}

func TestRunsOrderedByInstrumentationDensity(t *testing.T) {
	// Fewer instrumented branches must not make replay cheaper: the
	// all-branches fixture needs at most as many runs as the empty plan.
	full := buildFixture(t, instrument.MethodAll)
	engFull := New(full.prog, full.spec, world.NewRegistry(full.spec), full.rec, Options{MaxRuns: 500})
	resFull := engFull.Reproduce(context.Background())

	prog := compile(t, twoByteGuard)
	spec := &world.Spec{Args: []world.Stream{world.ArgSpec(0, "ab", 4)}}
	empty := &instrument.Plan{Instrumented: map[lang.BranchID]bool{}}
	rec := record(t, prog, spec, empty, map[string][]byte{"arg0": []byte("PQ")})
	engEmpty := New(prog, spec, world.NewRegistry(spec), rec, Options{MaxRuns: 500})
	resEmpty := engEmpty.Reproduce(context.Background())

	if !resFull.Reproduced || !resEmpty.Reproduced {
		t.Fatalf("full=%v empty=%v", resFull.Reproduced, resEmpty.Reproduced)
	}
	if resFull.Runs > resEmpty.Runs {
		t.Errorf("full log used more runs (%d) than no log (%d)", resFull.Runs, resEmpty.Runs)
	}
}

func TestWrongCrashSiteRejected(t *testing.T) {
	// Tamper with the recorded crash site: replay must not claim success.
	f := buildFixture(t, instrument.MethodAll)
	f.rec.Crash.Pos.Line += 100
	eng := New(f.prog, f.spec, world.NewRegistry(f.spec), f.rec, Options{MaxRuns: 50})
	res := eng.Reproduce(context.Background())
	if res.Reproduced {
		t.Fatal("reproduction claimed for a different crash site")
	}
}

func TestTraceTampering(t *testing.T) {
	// Flip the recorded trace to all-false: the recorded path is then
	// impossible and replay must fail (or time out), not misreport.
	prog := compile(t, twoByteGuard)
	spec := &world.Spec{Args: []world.Stream{world.ArgSpec(0, "ab", 4)}}
	in := instrument.Inputs{
		Dynamic: concolic.New(prog, spec, world.NewRegistry(spec), concolic.Options{MaxRuns: 40}).Explore(context.Background()),
		Static:  static.Analyze(prog, static.Options{}),
	}
	plan := planFor(t, prog, instrument.MethodAll, in)
	rec := record(t, prog, spec, plan, map[string][]byte{"arg0": []byte("PQ")})

	w := trace.NewWriter()
	for i := int64(0); i < rec.Trace.Len(); i++ {
		w.Append(false)
	}
	rec.Trace = w.Finish()
	eng := New(prog, spec, world.NewRegistry(spec), rec, Options{MaxRuns: 100, TimeBudget: 5 * time.Second})
	res := eng.Reproduce(context.Background())
	if res.Reproduced {
		t.Fatal("reproduced an impossible trace")
	}
}

func TestStatsConsistency(t *testing.T) {
	f := buildFixture(t, instrument.MethodAll)
	eng := New(f.prog, f.spec, world.NewRegistry(f.spec), f.rec, Options{MaxRuns: 200})
	res := eng.Reproduce(context.Background())
	if !res.Reproduced {
		t.Fatal("not reproduced")
	}
	if res.Runs < 1 || res.Aborts != res.Runs-1 {
		t.Errorf("runs=%d aborts=%d", res.Runs, res.Aborts)
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not measured")
	}
	if res.SymLoggedLocs > len(f.prog.Branches) {
		t.Error("more logged locations than branches exist")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() int {
		f := buildFixture(t, instrument.MethodDynamicStatic)
		eng := New(f.prog, f.spec, world.NewRegistry(f.spec), f.rec, Options{MaxRuns: 300})
		res := eng.Reproduce(context.Background())
		if !res.Reproduced {
			t.Fatal("not reproduced")
		}
		return res.Runs
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic replay: %d vs %d runs", a, b)
	}
}

// TestNilEngineIsBytecodeVM pins the one engine rule: a nil Options.Engine
// runs every replay on the bytecode VM, never on the tree-walking oracle.
func TestNilEngineIsBytecodeVM(t *testing.T) {
	f := buildFixture(t, instrument.MethodDynamic)
	eng := New(f.prog, f.spec, world.NewRegistry(f.spec), f.rec, Options{})
	if got, want := reflect.ValueOf(eng.opts.Engine).Pointer(), reflect.ValueOf(ir.Engine).Pointer(); got != want {
		t.Fatalf("nil Options.Engine resolved to %#x, want ir.Engine (%#x)", got, want)
	}
}

func TestReproduceContextCancelled(t *testing.T) {
	f := buildFixture(t, instrument.MethodAll)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := New(f.prog, f.spec, world.NewRegistry(f.spec), f.rec, Options{MaxRuns: 200})
	res := eng.Reproduce(ctx)
	if res.Reproduced || !res.Cancelled || res.Runs != 0 {
		t.Fatalf("pre-cancelled replay: %+v", res)
	}
}

func TestReproduceContextDeadlineReportsTimeout(t *testing.T) {
	f := buildFixture(t, instrument.MethodAll)
	ctx, cancel := context.WithDeadline(context.Background(),
		time.Now().Add(-time.Second))
	defer cancel()
	eng := New(f.prog, f.spec, world.NewRegistry(f.spec), f.rec, Options{MaxRuns: 200})
	res := eng.Reproduce(ctx)
	if res.Reproduced || !res.TimedOut || res.Cancelled {
		t.Fatalf("expired-deadline replay: %+v", res)
	}
}
