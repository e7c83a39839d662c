package ir_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"pathlog/internal/apps"
	"pathlog/internal/concolic"
	"pathlog/internal/core"
	"pathlog/internal/instrument"
	"pathlog/internal/ir"
	"pathlog/internal/lang"
	"pathlog/internal/replay"
	"pathlog/internal/static"
	"pathlog/internal/vm"
)

// The scenario-level differential harness: every named app scenario —
// coreutils, all five uServer experiments, the diff experiments, the
// Listing-1 micro program — runs the full pipeline (concolic analysis,
// instrumented user-site recording, guided replay) under the tree walker and
// the bytecode VM, and every artifact must match: branch labels and
// histograms, trace bits, syscall logs, crash sites, step counts, replay run
// counts and the per-branch search-profile attribution.

// pipeOut is everything one engine's pipeline produced, with wall-clock
// fields stripped.
type pipeOut struct {
	DynRuns      int
	Labels       map[lang.BranchID]concolic.Label
	ExecCount    map[lang.BranchID]int64
	SymExecCount map[lang.BranchID]int64
	BranchExecs  int64
	SymExecs     int64

	Stats *core.RecordStats

	HasRec      bool
	TraceBits   []byte
	TraceLen    int64
	SysReads    []int64
	SysSelects  [][]int
	Crash       vm.CrashInfo
	Fingerprint string

	Replay *replay.Result
}

// runPipeline drives one engine through analysis, record and replay (serial
// search) for a named scenario. The instrumentation plan is built from the
// engine's own analysis, so a labeling divergence surfaces as a plan
// divergence too.
func runPipeline(t *testing.T, name string, engine vm.Factory, replayRuns int) *pipeOut {
	t.Helper()
	ctx := context.Background()
	scn, err := apps.ScenarioByName(name)
	if err != nil {
		t.Fatal(err)
	}
	scn.Engine = engine
	an := apps.AnalysisScenarioFor(name, scn)
	an.Engine = engine

	dyn := an.AnalyzeDynamicContext(ctx, concolic.Options{MaxRuns: 6})
	st := scn.AnalyzeStatic(static.Options{LibAsSymbolic: true})
	plan := scn.Plan(instrument.MethodDynamic, instrument.Inputs{Dynamic: dyn, Static: st}, true)

	rec, stats, err := scn.RecordContext(ctx, plan)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	stats.Wall = 0
	out := &pipeOut{
		DynRuns:      dyn.Runs,
		Labels:       dyn.Labels,
		ExecCount:    dyn.ExecCount,
		SymExecCount: dyn.SymExecCount,
		BranchExecs:  dyn.BranchExecs,
		SymExecs:     dyn.SymbolicExecs,
		Stats:        stats,
	}
	if rec == nil {
		return out
	}
	out.HasRec = true
	out.TraceBits = rec.Trace.Bytes()
	out.TraceLen = rec.Trace.Len()
	if rec.SysLog != nil {
		out.SysReads, out.SysSelects = rec.SysLog.Snapshot()
	}
	out.Crash = rec.Crash
	out.Fingerprint = rec.Fingerprint

	res := scn.ReplayContext(ctx, rec, replay.Options{MaxRuns: replayRuns})
	res.Elapsed = 0
	if res.Profile != nil {
		for _, bc := range res.Profile.Branches {
			bc.SolverTime = 0
		}
	}
	out.Replay = res
	return out
}

func scenarioList(t *testing.T) []string {
	names := apps.ScenarioNames()
	if testing.Short() {
		// One representative of each app family keeps -short fast.
		names = []string{"mkdir", "userver-exp4", "diff-exp1", "micro-fib"}
	}
	return names
}

// TestScenarioPipelineParity is the serial-search differential gate: the
// search is deterministic under both engines, so every pipeline
// artifact must be identical — including the replay result's path stats,
// pending peak and per-branch SearchProfile attribution.
func TestScenarioPipelineParity(t *testing.T) {
	for _, name := range scenarioList(t) {
		t.Run(name, func(t *testing.T) {
			tree := runPipeline(t, name, vm.TreeFactory, 100)
			bc := runPipeline(t, name, ir.Engine, 100)
			if !reflect.DeepEqual(tree, bc) {
				diffPipeOut(t, tree, bc)
			}
		})
	}
}

// diffPipeOut reports which artifact diverged, field by field, so a parity
// break names the layer it happened in.
func diffPipeOut(t *testing.T, tree, bc *pipeOut) {
	t.Helper()
	check := func(what string, a, b interface{}) {
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s diverged:\ntree:     %+v\nbytecode: %+v", what, a, b)
		}
	}
	check("analysis runs", tree.DynRuns, bc.DynRuns)
	check("branch labels", tree.Labels, bc.Labels)
	check("exec histogram", tree.ExecCount, bc.ExecCount)
	check("symbolic-exec histogram", tree.SymExecCount, bc.SymExecCount)
	check("branch execs", tree.BranchExecs, bc.BranchExecs)
	check("symbolic execs", tree.SymExecs, bc.SymExecs)
	check("record stats", tree.Stats, bc.Stats)
	check("has recording", tree.HasRec, bc.HasRec)
	check("trace bits", tree.TraceBits, bc.TraceBits)
	check("trace length", tree.TraceLen, bc.TraceLen)
	check("syscall log reads", tree.SysReads, bc.SysReads)
	check("syscall log selects", tree.SysSelects, bc.SysSelects)
	check("crash site", tree.Crash, bc.Crash)
	check("plan fingerprint", tree.Fingerprint, bc.Fingerprint)
	check("replay result", tree.Replay, bc.Replay)
	if !t.Failed() {
		t.Fatal("pipeOut diverged but no field did — comparison bug")
	}
}

// TestScenarioReplayParityWorkers runs four serial searches concurrently on
// one scenario and one recording, under each engine — the way corpus
// shards share a program, a spec and an engine factory (CI runs this
// package with -race). The search is deterministic, so every
// concurrent search must find the same reproduction in the same number of
// runs, under both engines.
func TestScenarioReplayParityWorkers(t *testing.T) {
	names := []string{"mkdir", "userver-exp4"}
	if testing.Short() {
		names = names[:1]
	}
	const searches = 4
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			scn, err := apps.ScenarioByName(name)
			if err != nil {
				t.Fatal(err)
			}
			an := apps.AnalysisScenarioFor(name, scn)
			dyn := an.AnalyzeDynamicContext(ctx, concolic.Options{MaxRuns: 6})
			st := scn.AnalyzeStatic(static.Options{LibAsSymbolic: true})
			plan := scn.Plan(instrument.MethodDynamicStatic, instrument.Inputs{Dynamic: dyn, Static: st}, true)
			rec, _, err := scn.RecordContext(ctx, plan)
			if err != nil || rec == nil {
				t.Fatalf("record: rec=%v err=%v", rec, err)
			}
			var first *replay.Result
			for _, engine := range []vm.Factory{vm.TreeFactory, ir.Engine} {
				scn.Engine = engine
				results := make([]*replay.Result, searches)
				var wg sync.WaitGroup
				for i := range results {
					wg.Add(1)
					go func() {
						defer wg.Done()
						results[i] = scn.ReplayContext(ctx, rec, replay.Options{MaxRuns: 1000})
					}()
				}
				wg.Wait()
				for _, res := range results {
					if !res.Reproduced {
						t.Fatalf("not reproduced after %d runs", res.Runs)
					}
					if !scn.VerifyInput(res.InputBytes, rec.Crash) {
						t.Fatalf("reproducing input does not activate the recorded crash")
					}
					if first == nil {
						first = res
						continue
					}
					if res.Runs != first.Runs || !reflect.DeepEqual(res.InputBytes, first.InputBytes) {
						t.Fatalf("concurrent searches diverged: %d runs, input %q; want %d runs, input %q",
							res.Runs, res.InputBytes, first.Runs, first.InputBytes)
					}
				}
			}
		})
	}
}
