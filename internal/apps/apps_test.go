package apps

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"pathlog/internal/concolic"
	"pathlog/internal/core"
	"pathlog/internal/instrument"
	"pathlog/internal/oskernel"
	"pathlog/internal/replay"
	"pathlog/internal/static"
	"pathlog/internal/vm"
	"pathlog/internal/world"
)

// runConcrete executes a scenario's user run without instrumentation.
func runConcrete(t *testing.T, s *core.Scenario) vm.Result {
	t.Helper()
	spec, err := s.UserSpec()
	if err != nil {
		t.Fatal(err)
	}
	w := world.NewWorld(spec, world.NewRegistry(spec), nil)
	w.Symbolic = false
	cfg := w.KernelConfig()
	cfg.Mode = oskernel.ModeRecord
	res, err := vm.New(s.Prog, vm.Options{Kernel: oskernel.New(cfg)}).Run()
	if err != nil {
		t.Fatalf("vm: %v", err)
	}
	return res
}

// runWithArgs executes a coreutil with specific arguments and files.
func runWithArgs(t *testing.T, name string, args []string, files map[string][]byte) vm.Result {
	t.Helper()
	s, err := CoreutilScenario(name, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := oskernel.Config{Files: files}
	for _, a := range args {
		cfg.Args = append(cfg.Args, []byte(a))
	}
	if files == nil {
		// Reuse the scenario's declared files (paste needs its input file).
		spec, err := s.UserSpec()
		if err != nil {
			t.Fatal(err)
		}
		w := world.NewWorld(spec, world.NewRegistry(spec), nil)
		kcfg := w.KernelConfig()
		cfg.Files = kcfg.Files
	}
	res, err := vm.New(s.Prog, vm.Options{Kernel: oskernel.New(cfg)}).Run()
	if err != nil {
		t.Fatalf("vm: %v", err)
	}
	return res
}

func TestCoreutilsHealthyRuns(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		stdout string
	}{
		{"mkdir", []string{"-v", "mydir"}, "created directory mydir"},
		{"mkdir", []string{"-m", "755", "d"}, "493"},
		{"mknod", []string{"pipe1", "p"}, "created fifo pipe1"},
		{"mknod", []string{"dev0", "b", "8", "1"}, "created device dev0"},
		{"mkfifo", []string{"f1", "f2"}, "created fifo f2"},
		{"mkfifo", []string{"-m", "644", "f"}, "420"},
		{"paste", []string{"data.txt"}, "a\tb\tc"},
		{"paste", []string{"-s", "data.txt"}, "a\nb\nc"},
		{"paste", []string{"-d", ",", "data.txt"}, "a,b,c"},
		{"paste", []string{"-d:", "data.txt"}, "a:b:c"},
	}
	for _, tc := range cases {
		res := runWithArgs(t, tc.name, tc.args, nil)
		if res.Crashed {
			t.Errorf("%s %v: crashed: %s", tc.name, tc.args, res.Crash.Site())
			continue
		}
		if !strings.Contains(string(res.Stdout), tc.stdout) {
			t.Errorf("%s %v: stdout %q missing %q", tc.name, tc.args, res.Stdout, tc.stdout)
		}
	}
}

func TestCoreutilsUsageErrors(t *testing.T) {
	cases := [][2]string{
		{"mkdir", "-Q"},
		{"mkfifo", "-Q"},
		{"paste", "-Q"},
	}
	for _, tc := range cases {
		res := runWithArgs(t, tc[0], []string{tc[1]}, nil)
		if res.Crashed {
			t.Errorf("%s %s: crashed instead of usage error", tc[0], tc[1])
		}
		if res.Exit != 1 {
			t.Errorf("%s %s: exit %d", tc[0], tc[1], res.Exit)
		}
	}
}

func TestCoreutilBugsTrigger(t *testing.T) {
	wantKinds := map[string]vm.CrashKind{
		"mkdir":  vm.CrashOOB,
		"mknod":  vm.CrashOOB,
		"mkfifo": vm.CrashOOB,
		"paste":  vm.CrashDivZero,
	}
	for _, name := range CoreutilNames() {
		s, err := CoreutilScenario(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		res := runConcrete(t, s)
		if !res.Crashed {
			t.Errorf("%s: user input did not crash", name)
			continue
		}
		if res.Crash.Kind != wantKinds[name] {
			t.Errorf("%s: crash kind %v, want %v", name, res.Crash.Kind, wantKinds[name])
		}
	}
}

// TestCoreutilScenarioMatchesCoreutils checks that the one coreutil
// CoreutilScenario builds is the same program, spec and user input as its
// entry in Coreutils, and that Coreutils lists CoreutilNames in order.
func TestCoreutilScenarioMatchesCoreutils(t *testing.T) {
	all := Coreutils(12)
	if len(all) != len(CoreutilNames()) {
		t.Fatalf("Coreutils lists %d programs, want %d", len(all), len(CoreutilNames()))
	}
	for i, name := range CoreutilNames() {
		cu := all[i]
		s, err := CoreutilScenario(name, 12)
		if err != nil {
			t.Fatal(err)
		}
		if cu.Name != name || s.Name != name {
			t.Errorf("entry %d is %q, scenario %q, want %q", i, cu.Name, s.Name, name)
		}
		if s.Prog.Hash() != cu.Prog.Hash() || !reflect.DeepEqual(s.Spec, cu.Spec) || !reflect.DeepEqual(s.UserBytes, cu.UserArg) {
			t.Errorf("%s: scenario differs from its Coreutils entry", name)
		}
	}
	if _, err := CoreutilScenario("cat", 12); err == nil {
		t.Error("unknown coreutil accepted")
	}
}

func TestMkdirCrashInLibrary(t *testing.T) {
	// The mkdir overflow happens inside ulib's str_cpy, like the original
	// report crashing inside libc.
	s, err := CoreutilScenario("mkdir", 16)
	if err != nil {
		t.Fatal(err)
	}
	res := runConcrete(t, s)
	if !res.Crashed || res.Crash.Pos.Unit != "ulib.mc" {
		t.Fatalf("crash: %+v", res.Crash)
	}
}

func TestUServerServesRequests(t *testing.T) {
	s := UServerLoadScenario(3, DefaultHTTPRequest)
	res := runConcrete(t, s)
	if res.Crashed {
		t.Fatalf("crashed: %s", res.Crash.Site())
	}
	if !strings.Contains(string(res.Stdout), "served 3 requests") {
		t.Fatalf("stdout: %q", res.Stdout)
	}
}

func TestUServerResponses(t *testing.T) {
	reqs := []string{
		"GET / HTTP/1.1\r\n\r\n",
		"POST /s HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd",
		"BOGUS / HTTP/1.1\r\n\r\n",
	}
	spec, user := UServerScenarioSpec(reqs, 80, false)
	s := &core.Scenario{Name: "t", Prog: UServerProgram(), Spec: spec, UserBytes: user}
	userSpec, err := s.UserSpec()
	if err != nil {
		t.Fatal(err)
	}
	w := world.NewWorld(userSpec, world.NewRegistry(userSpec), nil)
	w.Symbolic = false
	cfg := w.KernelConfig()
	cfg.Mode = oskernel.ModeRecord
	kern := oskernel.New(cfg)
	if _, err := vm.New(s.Prog, vm.Options{Kernel: kern}).Run(); err != nil {
		t.Fatal(err)
	}
	if got := string(kern.ConnWrites(0)); !strings.Contains(got, "200 OK") {
		t.Errorf("conn0 response: %q", got)
	}
	if got := string(kern.ConnWrites(1)); !strings.Contains(got, "200 OK") ||
		!strings.Contains(got, "X-Echo: 4") {
		t.Errorf("conn1 response: %q", got)
	}
	if got := string(kern.ConnWrites(2)); !strings.Contains(got, "400 Bad Request") {
		t.Errorf("conn2 response: %q", got)
	}
}

func TestUServerCrashScenario(t *testing.T) {
	for exp := 1; exp <= len(UServerExperiments); exp++ {
		s, err := UServerScenario(exp, 80)
		if err != nil {
			t.Fatal(err)
		}
		res := runConcrete(t, s)
		if !res.Crashed || res.Crash.Kind != vm.CrashExplicit || res.Crash.Code != 7 {
			t.Errorf("exp %d: crash %+v", exp, res.Crash)
		}
	}
}

func TestUServerBranchMix(t *testing.T) {
	// Figure 3's qualitative claim: roughly 10% of branch executions are
	// symbolic, and the library executes the majority of all branches.
	s := UServerLoadScenario(5, DefaultHTTPRequest)
	rep := s.AnalyzeDynamicContext(context.Background(), concolic.Options{MaxRuns: 1})
	if rep.BranchExecs == 0 {
		t.Fatal("no branches executed")
	}
	frac := float64(rep.SymbolicExecs) / float64(rep.BranchExecs)
	if frac <= 0.01 || frac >= 0.6 {
		t.Errorf("symbolic fraction %.3f outside plausible band", frac)
	}
}

func TestDiffOutputs(t *testing.T) {
	for exp := 1; exp <= len(DiffExperiments); exp++ {
		s, err := DiffExperimentScenario(exp)
		if err != nil {
			t.Fatal(err)
		}
		res := runConcrete(t, s)
		if !res.Crashed || res.Crash.Kind != vm.CrashExplicit || res.Crash.Code != 9 {
			t.Fatalf("exp %d: want the end-of-run crash, got %+v", exp, res.Crash)
		}
		out := string(res.Stdout)
		if !strings.Contains(out, "deleted") || !strings.Contains(out, "added") {
			t.Errorf("exp %d: output %q", exp, out)
		}
	}
}

func TestDiffIdenticalFiles(t *testing.T) {
	spec, user := DiffScenario("same\nlines\n", "same\nlines\n", 24)
	s := &core.Scenario{Name: "t", Prog: DiffProgram(), Spec: spec, UserBytes: user}
	res := runConcrete(t, s)
	if !strings.Contains(string(res.Stdout), "files are identical") {
		t.Fatalf("stdout: %q", res.Stdout)
	}
}

func TestDiffEditScript(t *testing.T) {
	spec, user := DiffScenario("a\nb\nc\n", "a\nX\nc\n", 16)
	s := &core.Scenario{Name: "t", Prog: DiffProgram(), Spec: spec, UserBytes: user}
	res := runConcrete(t, s)
	out := string(res.Stdout)
	if !strings.Contains(out, "< b") || !strings.Contains(out, "> X") {
		t.Fatalf("edit script: %q", out)
	}
	if !strings.Contains(out, "1 deleted, 1 added, 2 common") {
		t.Fatalf("summary: %q", out)
	}
}

func TestMicroLoopCounts(t *testing.T) {
	s := MicroLoopScenario(1000)
	res := runConcrete(t, s)
	if string(res.Stdout) != "1000" {
		t.Fatalf("stdout: %q", res.Stdout)
	}
}

func TestMicroFibResults(t *testing.T) {
	// Iterative fibonacci: F(20)=6765, F(40)=102334155.
	for _, tc := range []struct {
		opt  byte
		want string
	}{
		{'a', "Result: 6765"},
		{'b', "Result: 102334155"},
		{'x', "Result: 0"},
	} {
		s := MicroFibScenario(tc.opt)
		res := runConcrete(t, s)
		if !strings.Contains(string(res.Stdout), tc.want) {
			t.Errorf("opt %c: %q", tc.opt, res.Stdout)
		}
	}
}

func TestMicroFibSelectiveInstrumentation(t *testing.T) {
	// §5.1: every configuration except all-branches instruments only the two
	// option branches of Listing 1.
	s := MicroFibScenario('a')
	an := AnalysisSpec(s)
	in := instrument.Inputs{
		Dynamic: an.AnalyzeDynamicContext(context.Background(), concolic.Options{MaxRuns: 40}),
		Static:  an.AnalyzeStatic(static.Options{}),
	}
	for _, m := range []instrument.Method{
		instrument.MethodDynamic, instrument.MethodStatic, instrument.MethodDynamicStatic,
	} {
		plan := s.Plan(m, in, false)
		if got := plan.NumInstrumented(); got != 2 {
			t.Errorf("%v: instruments %d branches, want 2 (ids %v)", m, got, plan.IDs())
		}
	}
	all := s.Plan(instrument.MethodAll, in, false)
	if got := all.NumInstrumented(); got != len(s.Prog.Branches) {
		t.Errorf("all: %d", got)
	}
}

func TestCoreutilEndToEndReplay(t *testing.T) {
	// Table 1: the four coreutils bugs reproduce quickly under every method.
	ctx := context.Background()
	for _, name := range CoreutilNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			s, err := CoreutilScenario(name, 12)
			if err != nil {
				t.Fatal(err)
			}
			an := AnalysisSpec(s)
			// Coreutils are small: the explorer reaches high coverage fast
			// (the paper's Table 1 precondition), so give it enough runs.
			in := instrument.Inputs{
				Dynamic: an.AnalyzeDynamicContext(ctx, concolic.Options{MaxRuns: 1000}),
				Static:  an.AnalyzeStatic(static.Options{}),
			}
			for _, m := range instrument.Methods {
				plan := s.Plan(m, in, true)
				rec, _, err := s.RecordContext(ctx, plan)
				if err != nil {
					t.Fatalf("%v: %v", m, err)
				}
				if rec == nil {
					t.Fatalf("%v: no crash recorded", m)
				}
				res := s.ReplayContext(ctx, rec, replay.Options{
					MaxRuns:    4000,
					TimeBudget: 60 * time.Second,
				})
				if !res.Reproduced {
					t.Fatalf("%v: not reproduced after %d runs (timeout=%v)",
						m, res.Runs, res.TimedOut)
				}
				if !s.VerifyInput(res.InputBytes, rec.Crash) {
					t.Fatalf("%v: input does not verify", m)
				}
			}
		})
	}
}
