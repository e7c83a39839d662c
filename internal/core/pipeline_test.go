package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"pathlog/internal/concolic"
	"pathlog/internal/instrument"
	"pathlog/internal/lang"
	"pathlog/internal/replay"
	"pathlog/internal/static"
	"pathlog/internal/world"
)

func compile(t *testing.T, src string) *lang.Program {
	t.Helper()
	u, err := lang.ParseUnit("app.mc", lang.RegionApp, src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := lang.Link([]*lang.Unit{u})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return p
}

// guardedCrash crashes only when arg0 is "-x" and arg1 starts with 'K'.
const guardedCrash = `
int streq(char *a, char *b) {
	int i = 0;
	while (a[i] != '\0' && b[i] != '\0') {
		if (a[i] != b[i]) { return 0; }
		i++;
	}
	if (a[i] == b[i]) { return 1; }
	return 0;
}
int main() {
	char a0[8];
	char a1[8];
	getarg(0, a0, 8);
	getarg(1, a1, 8);
	if (streq(a0, "-x")) {
		if (a1[0] == 'K') {
			crash(42);
		}
	}
	print_str("ok");
	return 0;
}
`

func guardedScenario(t *testing.T) *Scenario {
	return &Scenario{
		Name: "guarded",
		Prog: compile(t, guardedCrash),
		Spec: &world.Spec{Args: []world.Stream{
			world.ArgSpec(0, "aa", 4),
			world.ArgSpec(1, "bb", 4),
		}},
		UserBytes: map[string][]byte{
			"arg0": []byte("-x"),
			"arg1": []byte("K"),
		},
	}
}

func analyses(t *testing.T, s *Scenario) instrument.Inputs {
	t.Helper()
	return instrument.Inputs{
		Dynamic: s.AnalyzeDynamicContext(context.Background(), concolic.Options{MaxRuns: 60}),
		Static:  s.AnalyzeStatic(static.Options{}),
	}
}

func TestRecordProducesReportOnCrash(t *testing.T) {
	s := guardedScenario(t)
	in := analyses(t, s)
	plan := s.Plan(instrument.MethodAll, in, true)
	rec, stats, err := s.RecordContext(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		t.Fatal("no recording despite crash")
	}
	if rec.Crash.Kind.String() != "crash()" || rec.Crash.Code != 42 {
		t.Fatalf("crash: %+v", rec.Crash)
	}
	if rec.Trace.Len() == 0 {
		t.Fatal("empty trace under all-branches")
	}
	if stats.InstrumentedExecs != rec.Trace.Len() {
		t.Fatalf("execs %d vs bits %d", stats.InstrumentedExecs, rec.Trace.Len())
	}
	if rec.SysLog == nil {
		t.Fatal("syscall log missing")
	}
}

func TestRecordNoCrashNoReport(t *testing.T) {
	s := guardedScenario(t)
	s.UserBytes = map[string][]byte{"arg0": []byte("-y")}
	in := analyses(t, s)
	plan := s.Plan(instrument.MethodAll, in, true)
	rec, stats, err := s.RecordContext(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Fatal("recording produced without a crash")
	}
	if string(stats.Stdout) != "ok" {
		t.Fatalf("stdout: %q", stats.Stdout)
	}
}

func TestPrivacyNoInputBytesInReport(t *testing.T) {
	// The report consists of branch direction bits and syscall result
	// counts; the user's distinctive bytes must not appear in it.
	s := guardedScenario(t)
	s.UserBytes = map[string][]byte{"arg0": []byte("-x"), "arg1": []byte("K")}
	in := analyses(t, s)
	plan := s.Plan(instrument.MethodAll, in, true)
	rec, _, err := s.RecordContext(context.Background(), plan)
	if err != nil || rec == nil {
		t.Fatal(err)
	}
	raw := string(rec.Trace.Bytes())
	if strings.Contains(raw, "-x") || strings.Contains(raw, "K") {
		// One-byte containment can collide by chance, but for this tiny
		// trace the check is meaningful for "-x".
		if strings.Contains(raw, "-x") {
			t.Error("trace appears to contain input bytes")
		}
	}
}

func TestReplayAllMethods(t *testing.T) {
	ctx := context.Background()
	s := guardedScenario(t)
	in := analyses(t, s)
	for _, method := range instrument.Methods {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			plan := s.Plan(method, in, true)
			rec, _, err := s.RecordContext(ctx, plan)
			if err != nil {
				t.Fatal(err)
			}
			if rec == nil {
				t.Fatal("no recording")
			}
			res := s.ReplayContext(ctx, rec, replay.Options{MaxRuns: 500, TimeBudget: 20 * time.Second})
			if !res.Reproduced {
				t.Fatalf("not reproduced: %+v", res)
			}
			if !s.VerifyInput(res.InputBytes, rec.Crash) {
				t.Fatalf("replay input does not activate the bug: %v", res.InputBytes)
			}
			// The reproducing input need not equal the user's input, but for
			// this bug arg0 must decode to "-x" and arg1[0] to 'K'.
			if got := string(trimNul(res.InputBytes["arg0"])); got != "-x" {
				t.Errorf("arg0: %q", got)
			}
			if res.InputBytes["arg1"][0] != 'K' {
				t.Errorf("arg1[0]: %q", res.InputBytes["arg1"][0])
			}
		})
	}
}

func trimNul(b []byte) []byte {
	for i, c := range b {
		if c == 0 {
			return b[:i]
		}
	}
	return b
}

func TestReplayInvariantsPerMethod(t *testing.T) {
	// Under all/static every symbolic branch is instrumented: the successful
	// replay path must show zero unlogged symbolic executions (§3.2).
	ctx := context.Background()
	s := guardedScenario(t)
	in := analyses(t, s)
	for _, method := range []instrument.Method{instrument.MethodAll, instrument.MethodStatic} {
		plan := s.Plan(method, in, true)
		rec, _, err := s.RecordContext(ctx, plan)
		if err != nil || rec == nil {
			t.Fatal(err)
		}
		res := s.ReplayContext(ctx, rec, replay.Options{MaxRuns: 500})
		if !res.Reproduced {
			t.Fatalf("%v: not reproduced", method)
		}
		if res.SymNotLoggedLocs != 0 || res.SymNotLoggedExecs != 0 {
			t.Errorf("%v: unlogged symbolic branches on replay path: %d locs / %d execs",
				method, res.SymNotLoggedLocs, res.SymNotLoggedExecs)
		}
	}
}

func TestReplayWithPoorDynamicCoverage(t *testing.T) {
	// A dynamic plan built from a single exploration run misses symbolic
	// branches; replay must still reproduce by searching (more runs).
	ctx := context.Background()
	s := guardedScenario(t)
	in := instrument.Inputs{
		Dynamic: s.AnalyzeDynamicContext(ctx, concolic.Options{MaxRuns: 1}),
		Static:  s.AnalyzeStatic(static.Options{}),
	}
	plan := s.Plan(instrument.MethodDynamic, in, true)
	rec, _, err := s.RecordContext(ctx, plan)
	if err != nil || rec == nil {
		t.Fatal(err)
	}
	res := s.ReplayContext(ctx, rec, replay.Options{MaxRuns: 2000, TimeBudget: 30 * time.Second})
	if !res.Reproduced {
		t.Fatalf("not reproduced: %+v", res)
	}
	if !s.VerifyInput(res.InputBytes, rec.Crash) {
		t.Fatal("input does not verify")
	}

	// Compare search effort against the fully instrumented configuration.
	full := s.Plan(instrument.MethodAll, in, true)
	recFull, _, err := s.RecordContext(ctx, full)
	if err != nil || recFull == nil {
		t.Fatal(err)
	}
	resFull := s.ReplayContext(ctx, recFull, replay.Options{MaxRuns: 2000})
	if !resFull.Reproduced {
		t.Fatal("all-branches replay failed")
	}
	if res.Runs < resFull.Runs {
		t.Errorf("under-instrumented replay used fewer runs (%d) than full (%d)",
			res.Runs, resFull.Runs)
	}
}

func TestReplayTimeBudget(t *testing.T) {
	ctx := context.Background()
	s := guardedScenario(t)
	in := analyses(t, s)
	plan := s.Plan(instrument.MethodAll, in, true)
	rec, _, err := s.RecordContext(ctx, plan)
	if err != nil || rec == nil {
		t.Fatal(err)
	}
	res := s.ReplayContext(ctx, rec, replay.Options{MaxRuns: 1_000_000, TimeBudget: time.Nanosecond})
	if res.Reproduced {
		// A nanosecond budget can still allow the very first run to start
		// before the deadline check; only assert that a timeout is flagged
		// when reproduction failed.
		return
	}
	if !res.TimedOut {
		t.Fatalf("expected timeout flag: %+v", res)
	}
}

func TestStripSyslog(t *testing.T) {
	ctx := context.Background()
	s := guardedScenario(t)
	in := analyses(t, s)
	plan := s.Plan(instrument.MethodAll, in, true)
	rec, _, err := s.RecordContext(ctx, plan)
	if err != nil || rec == nil {
		t.Fatal(err)
	}
	bare := StripSyslog(rec)
	if bare.SysLog != nil || bare.Trace != rec.Trace || bare.Crash != rec.Crash {
		t.Fatal("strip changed the wrong fields")
	}
	// Replay must still work via the syscall model for this syscall-light
	// program.
	res := s.ReplayContext(ctx, bare, replay.Options{MaxRuns: 1000, TimeBudget: 30 * time.Second})
	if !res.Reproduced {
		t.Fatalf("model-mode replay failed: %+v", res)
	}
}

func TestUserSpecValidation(t *testing.T) {
	s := guardedScenario(t)
	s.UserBytes = map[string][]byte{"arg0": []byte("waytoolongforthestream")}
	if _, err := s.UserSpec(); err == nil {
		t.Fatal("oversized user input must be rejected")
	}
}

func TestUserSpecRejectsUnknownStream(t *testing.T) {
	s := guardedScenario(t)
	// A typo'd stream name must fail loudly, not silently record the
	// neutral seed in place of the user's input.
	s.UserBytes = map[string][]byte{"arg9": []byte("PQ")}
	_, err := s.UserSpec()
	if err == nil {
		t.Fatal("unknown stream key must be rejected")
	}
	if !strings.Contains(err.Error(), "arg9") {
		t.Fatalf("error does not name the unknown stream: %v", err)
	}
}

func TestMeasureOverheadOrdering(t *testing.T) {
	// Instrumented configurations must not be cheaper than none, and all
	// must not be cheaper than dynamic (sanity, not a benchmark).
	ctx := context.Background()
	s := guardedScenario(t)
	s.UserBytes = map[string][]byte{"arg0": []byte("zz")} // non-crashing run
	in := analyses(t, s)

	nonePlan := s.Plan(instrument.MethodNone, in, false)
	allPlan := s.Plan(instrument.MethodAll, in, true)
	if _, _, err := s.MeasureOverheadContext(ctx, nonePlan, 3); err != nil {
		t.Fatal(err)
	}
	_, allStats, err := s.MeasureOverheadContext(ctx, allPlan, 3)
	if err != nil {
		t.Fatal(err)
	}
	if allStats.InstrumentedExecs == 0 {
		t.Fatal("all-branches run logged nothing")
	}
	if allStats.TraceBits != allStats.InstrumentedExecs {
		t.Fatalf("bits %d != instrumented execs %d", allStats.TraceBits, allStats.InstrumentedExecs)
	}
}

// fileCrash reads a file and crashes on a specific content prefix.
const fileCrash = `
int main() {
	int fd = open("in.txt");
	if (fd < 0) { exit(1); }
	char buf[32];
	int n = read(fd, buf, 32);
	if (n > 1) {
		if (buf[0] == 'G' && buf[1] == 'O') { crash(5); }
	}
	return 0;
}
`

func TestFileInputScenario(t *testing.T) {
	ctx := context.Background()
	s := &Scenario{
		Name: "filecrash",
		Prog: compile(t, fileCrash),
		Spec: &world.Spec{Files: []world.FileInput{world.FileSpec("in.txt", "xx", 8)}},
		UserBytes: map[string][]byte{
			"file:in.txt": []byte("GO"),
		},
	}
	in := analyses(t, s)
	for _, method := range []instrument.Method{instrument.MethodAll, instrument.MethodDynamicStatic} {
		plan := s.Plan(method, in, true)
		rec, _, err := s.RecordContext(ctx, plan)
		if err != nil || rec == nil {
			t.Fatalf("%v: record: %v", method, err)
		}
		res := s.ReplayContext(ctx, rec, replay.Options{MaxRuns: 1000, TimeBudget: 20 * time.Second})
		if !res.Reproduced {
			t.Fatalf("%v: not reproduced: runs=%d", method, res.Runs)
		}
		got := res.InputBytes["file:in.txt"]
		if got[0] != 'G' || got[1] != 'O' {
			t.Fatalf("%v: file content: %q", method, got)
		}
	}
}
