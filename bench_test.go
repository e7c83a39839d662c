// Benchmarks regenerating the paper's measurements, one per table/figure.
// Run with: go test -bench=. -benchmem
//
// Benchmarks labeled Figure2/Figure4/Figure5 measure user-site execution
// under each instrumentation method (the paper's CPU-time axes); the
// TableN benchmarks measure bug reproduction (the paper's replay times).
// Custom metrics report the work quantities the paper derives its claims
// from: logged bits per run, instrumented locations, replay runs.
package pathlog

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"pathlog/internal/apps"
	"pathlog/internal/concolic"
	"pathlog/internal/instrument"
	"pathlog/internal/obs"
	"pathlog/internal/static"
	"pathlog/internal/world"
)

// benchMethods are the instrumented configurations plus the baseline.
var benchMethods = []struct {
	name string
	m    instrument.Method
}{
	{"none", instrument.MethodNone},
	{"dynamic", instrument.MethodDynamic},
	{"dynamic+static", instrument.MethodDynamicStatic},
	{"static", instrument.MethodStatic},
	{"all", instrument.MethodAll},
}

// benchRecord runs the user-site workload once per iteration under a plan.
func benchRecord(b *testing.B, s *Scenario, plan *instrument.Plan) {
	b.Helper()
	sess := SessionOf(s)
	var bits, steps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := sess.RecordWith(context.Background(), plan, nil)
		if err != nil {
			b.Fatal(err)
		}
		bits = stats.TraceBits
		steps = stats.Steps
	}
	b.ReportMetric(float64(bits), "bits/run")
	b.ReportMetric(float64(steps), "steps/run")
	b.ReportMetric(float64(plan.NumInstrumented()), "instr-locs")
}

// benchReplay records once, then replays once per iteration.
func benchReplay(b *testing.B, s *Scenario, plan *instrument.Plan) {
	b.Helper()
	ctx := context.Background()
	sess := SessionOf(s, WithReplayBudget(4000, 30*time.Second))
	rec, _, err := sess.RecordWith(ctx, plan, nil)
	if err != nil {
		b.Fatal(err)
	}
	if rec == nil {
		b.Fatal("user run did not crash")
	}
	var runs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sess.Replay(ctx, rec)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Reproduced {
			b.Fatalf("not reproduced after %d runs", res.Runs)
		}
		runs = res.Runs
	}
	b.ReportMetric(float64(runs), "replay-runs")
}

// --- §5.1 microbenchmarks ---------------------------------------------------

// BenchmarkMicroLoop is the counting-loop overhead measurement: none vs all
// branches (paper: 107% overhead, ~3ns per logged branch).
func BenchmarkMicroLoop(b *testing.B) {
	const iters = 100_000
	s := apps.MicroLoopScenario(iters)
	for _, mc := range []struct {
		name string
		m    instrument.Method
	}{{"none", instrument.MethodNone}, {"all", instrument.MethodAll}} {
		b.Run(mc.name, func(b *testing.B) {
			plan := benchPlan(b, s.Prog, mc.m, instrument.Inputs{}, false)
			benchRecord(b, s, plan)
		})
	}
}

// BenchmarkMicroFib is Listing 1 under every configuration (paper: selective
// methods log 2 bits and cost nothing; all branches ~110%).
func BenchmarkMicroFib(b *testing.B) {
	s := apps.MicroFibScenario('b')
	in := analysesFor(b, s, 60, false)
	for _, mc := range benchMethods {
		b.Run(mc.name, func(b *testing.B) {
			benchRecord(b, s, benchPlan(b, s.Prog, mc.m, in, false))
		})
	}
}

// --- §5.2 coreutils ----------------------------------------------------------

// BenchmarkFigure2 measures mkdir user-site CPU per method (Figure 2).
func BenchmarkFigure2(b *testing.B) {
	s, err := apps.CoreutilScenario("mkdir", 12)
	if err != nil {
		b.Fatal(err)
	}
	s.UserBytes = map[string][]byte{
		"arg0": []byte("-p"), "arg1": []byte("a/b"), "arg2": []byte("-v"),
	}
	in := analysesFor(b, s, 600, false)
	for _, mc := range benchMethods {
		b.Run(mc.name, func(b *testing.B) {
			benchRecord(b, s, benchPlan(b, s.Prog, mc.m, in, true))
		})
	}
}

// BenchmarkTable1 measures coreutil bug reproduction per program (Table 1),
// under the dynamic+static method.
func BenchmarkTable1(b *testing.B) {
	for _, name := range apps.CoreutilNames() {
		b.Run(name, func(b *testing.B) {
			s, err := apps.CoreutilScenario(name, 12)
			if err != nil {
				b.Fatal(err)
			}
			in := analysesFor(b, s, 1000, false)
			benchReplay(b, s, benchPlan(b, s.Prog, instrument.MethodDynamicStatic, in, true))
		})
	}
}

// --- §5.3 uServer -------------------------------------------------------------

// BenchmarkFigure4CPU measures uServer user-site CPU per method over a load
// workload (Figure 4a). Storage appears as the bits/run metric (Figure 4b).
func BenchmarkFigure4CPU(b *testing.B) {
	s := apps.UServerLoadScenario(10, apps.DefaultHTTPRequest)
	an := apps.UServerAnalysisScenario()
	in := analysesFor(b, an, 60, true)
	for _, mc := range benchMethods {
		b.Run(mc.name, func(b *testing.B) {
			benchRecord(b, s, benchPlan(b, s.Prog, mc.m, in, true))
		})
	}
}

// BenchmarkTable3 measures uServer bug reproduction per experiment under
// dynamic+static (Table 3's central column).
func BenchmarkTable3(b *testing.B) {
	an := apps.UServerAnalysisScenario()
	in := analysesFor(b, an, 60, true)
	for exp := 1; exp <= 5; exp++ {
		b.Run(fmt.Sprintf("exp%d", exp), func(b *testing.B) {
			s, err := apps.UServerScenario(exp, 72)
			if err != nil {
				b.Fatal(err)
			}
			benchReplay(b, s, benchPlan(b, s.Prog, instrument.MethodDynamicStatic, in, true))
		})
	}
}

// BenchmarkTable5 measures uServer reproduction without syscall logging
// (Table 5): the engine searches for modeled read()/select() results.
func BenchmarkTable5(b *testing.B) {
	an := apps.UServerAnalysisScenario()
	in := analysesFor(b, an, 60, true)
	for _, exp := range []int{1, 4} {
		b.Run(fmt.Sprintf("exp%d", exp), func(b *testing.B) {
			s, err := apps.UServerScenario(exp, 72)
			if err != nil {
				b.Fatal(err)
			}
			benchReplay(b, s, benchPlan(b, s.Prog, instrument.MethodDynamicStatic, in, false))
		})
	}
}

// --- §5.4 diff ----------------------------------------------------------------

// BenchmarkFigure5 measures diff user-site CPU per method (Figure 5).
func BenchmarkFigure5(b *testing.B) {
	s, err := apps.DiffExperimentScenario(1)
	if err != nil {
		b.Fatal(err)
	}
	in := analysesFor(b, s, 40, false)
	for _, mc := range benchMethods {
		b.Run(mc.name, func(b *testing.B) {
			benchRecord(b, s, benchPlan(b, s.Prog, mc.m, in, true))
		})
	}
}

// BenchmarkTable6 measures diff bug reproduction per experiment under
// dynamic+static (Table 6; the dynamic row is inf by design and is exercised
// by the harness, not benched).
func BenchmarkTable6(b *testing.B) {
	for exp := 1; exp <= 2; exp++ {
		b.Run(fmt.Sprintf("exp%d", exp), func(b *testing.B) {
			s, err := apps.DiffExperimentScenario(exp)
			if err != nil {
				b.Fatal(err)
			}
			in := analysesFor(b, s, 40, false)
			benchReplay(b, s, benchPlan(b, s.Prog, instrument.MethodDynamicStatic, in, true))
		})
	}
}

// --- analysis costs (the pre-deployment phase itself) --------------------------

// BenchmarkDynamicAnalysis measures the concolic exploration cost per run
// budget — the coverage knob's price — on the uServer analysis and on diff
// exp1 at the end-to-end benchmark's 40-run budget. BENCH_analysis.json
// gates its time and allocations.
func BenchmarkDynamicAnalysis(b *testing.B) {
	diff, err := apps.DiffExperimentScenario(1)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		an   *Scenario
		runs int
	}{
		{"userver", apps.UServerAnalysisScenario(), 5},
		{"userver", apps.UServerAnalysisScenario(), 20},
		{"diff-exp1", diff, 40},
	} {
		b.Run(fmt.Sprintf("%s-%druns", c.name, c.runs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ex := concolic.New(c.an.Prog, c.an.Spec, world.NewRegistry(c.an.Spec), concolic.Options{MaxRuns: c.runs})
				rep := ex.Explore(context.Background())
				if rep.Runs == 0 {
					b.Fatal("no runs")
				}
			}
		})
	}
}

// BenchmarkStaticAnalysis measures the dataflow/points-to analysis.
func BenchmarkStaticAnalysis(b *testing.B) {
	progs := map[string]*Scenario{}
	if s, err := apps.CoreutilScenario("mkdir", 12); err == nil {
		progs["mkdir"] = s
	}
	progs["userver"] = apps.UServerLoadScenario(2, apps.DefaultHTTPRequest)
	if s, err := apps.DiffExperimentScenario(1); err == nil {
		progs["diff"] = s
	}
	for name, s := range progs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := static.Analyze(s.Prog, static.Options{})
				if rep.CountSymbolic() == 0 {
					b.Fatal("no symbolic branches found")
				}
			}
		})
	}
}

// analysesFor runs both analyses once for a benchmark or test.
func analysesFor(b testing.TB, an *Scenario, dynRuns int, libSym bool) instrument.Inputs {
	b.Helper()
	in, err := SessionOf(an, WithDynamicBudget(dynRuns, 0),
		WithStaticOptions(static.Options{LibAsSymbolic: libSym})).Analyze(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// benchPlan builds a method's plan for prog from an analysis.
func benchPlan(b testing.TB, prog *Program, m instrument.Method, in instrument.Inputs, logSyscalls bool) *instrument.Plan {
	b.Helper()
	p, err := instrument.StrategyForMethod(m).Plan(context.Background(), instrument.NewPlanContext(prog, in, logSyscalls))
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// --- record -----------------------------------------------------------------

// BenchmarkRecord measures one user-site run, uninstrumented and under the
// dynamic+static plan with the syscall log on, for a coreutil (paste), a
// uServer request (exp4) and diff (exp1): the record side of the balance.
// The instrumented run's extra time and allocations over the none run are
// what instrumentation costs a user, so the gate compares both.
func BenchmarkRecord(b *testing.B) {
	paste, err := apps.CoreutilScenario("paste", 12)
	if err != nil {
		b.Fatal(err)
	}
	userver, err := apps.UServerScenario(4, 72)
	if err != nil {
		b.Fatal(err)
	}
	diff, err := apps.DiffExperimentScenario(1)
	if err != nil {
		b.Fatal(err)
	}
	for _, sc := range []struct {
		name string
		s    *Scenario
		in   instrument.Inputs
	}{
		{"paste", paste, analysesFor(b, paste, 300, false)},
		{"userver-exp4", userver, analysesFor(b, apps.UServerAnalysisScenario(), 60, true)},
		{"diff-exp1", diff, analysesFor(b, diff, 40, false)},
	} {
		for _, m := range []instrument.Method{instrument.MethodNone, instrument.MethodDynamicStatic} {
			b.Run(sc.name+"/"+m.String(), func(b *testing.B) {
				b.ReportAllocs()
				benchRecord(b, sc.s, benchPlan(b, sc.s.Prog, m, sc.in, true))
			})
		}
	}
}

// --- replay -----------------------------------------------------------------

// BenchmarkReplay measures one Session replay of the uServer no-syslog
// search (model-mode replay is the breadth-heavy case) under the dynamic
// plan: the time to reproduce, the runs it takes and the cost per run. A
// divergent logged bit steers the run along the log, so this search takes
// two runs, each following the whole log.
func BenchmarkReplay(b *testing.B) {
	in := analysesFor(b, apps.UServerAnalysisScenario(), 60, true)
	s, err := apps.UServerScenario(4, 72)
	if err != nil {
		b.Fatal(err)
	}
	benchSessionReplay(b, s, benchPlan(b, s.Prog, instrument.MethodDynamic, in, false), false)
}

// BenchmarkReplaySearch measures the same uServer no-syslog replay under a
// plan that logs only 21 branches (budgeted(all,21)): the log leaves most
// symbolic branches open, so the search still forks and solves through
// some eighty runs. It keeps the search loop's per-run cost gated now that
// fuller plans reproduce in two runs.
func BenchmarkReplaySearch(b *testing.B) {
	in := analysesFor(b, apps.UServerAnalysisScenario(), 60, true)
	s, err := apps.UServerScenario(4, 72)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := instrument.Budgeted(instrument.All(), 21).Plan(context.Background(),
		instrument.NewPlanContext(s.Prog, in, false))
	if err != nil {
		b.Fatal(err)
	}
	benchSessionReplay(b, s, plan, false)
}

// BenchmarkReplayCold measures the fixed cost of reproducing one report: a
// paste report under the dynamic+static plan, which reproduces in two runs
// and one solve, replayed with a garbage collection before each op (outside
// the timer), as reports arrive at a developer site between other work. A
// two-run search is mostly fixed per-report cost — the program hash check,
// the solver and its cache tables, the search's bookkeeping — so this is
// the number that cost moves.
func BenchmarkReplayCold(b *testing.B) {
	s, err := apps.CoreutilScenario("paste", 12)
	if err != nil {
		b.Fatal(err)
	}
	in := analysesFor(b, s, 300, false)
	benchSessionReplay(b, s, benchPlan(b, s.Prog, instrument.MethodDynamicStatic, in, true), true)
}

// benchSessionReplay records once under plan, then replays the recording
// through a Session once per iteration, reporting the runs, the cost per
// run and the replay engine's per-run distributions. With gc set, every
// iteration starts after a garbage collection, run outside the timer.
func benchSessionReplay(b *testing.B, s *Scenario, plan *instrument.Plan, gc bool) {
	b.Helper()
	reg := obs.NewRegistry()
	sess := SessionOf(s,
		WithReplayBudget(4000, 30*time.Second),
		WithObserver(&Observer{Reg: reg}))
	rec, _, err := sess.RecordWith(context.Background(), plan, nil)
	if err != nil || rec == nil {
		b.Fatalf("record: %v", err)
	}
	var runs, totalRuns int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if gc {
			b.StopTimer()
			runtime.GC()
			b.StartTimer()
		}
		res, err := sess.Replay(context.Background(), rec)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Reproduced {
			b.Fatalf("not reproduced after %d runs", res.Runs)
		}
		runs = res.Runs
		totalRuns += res.Runs
	}
	b.ReportMetric(float64(runs), "replay-runs")
	// ns/replay-run is the per-run cost the engine work actually moves;
	// ns/op is the time to reproduce, which also counts the fixed
	// per-search setup and moves with how many runs the search needs. The
	// gate compares both, and the run count.
	if totalRuns > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalRuns), "ns/replay-run")
	}
	// The replay engine's per-run distributions, from the observer
	// registry: the committed baseline gains quantiles, not just best-run
	// means.
	for _, h := range reg.Snapshot().Histograms {
		if h.Count == 0 {
			continue
		}
		switch h.Name {
		case "pathlog_replay_run_ns":
			b.ReportMetric(h.Quantile(0.5), "p50-run-ns")
			b.ReportMetric(h.Quantile(0.9), "p90-run-ns")
			b.ReportMetric(h.Quantile(0.99), "p99-run-ns")
		case "pathlog_replay_solver_calls_per_run":
			b.ReportMetric(h.Quantile(0.5), "p50-solver-calls")
		case "pathlog_replay_logged_bits_per_run":
			b.ReportMetric(h.Quantile(0.5), "p50-logged-bits")
		}
	}
}
