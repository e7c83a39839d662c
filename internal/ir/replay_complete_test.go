package ir_test

import (
	"context"
	"fmt"
	"testing"

	"pathlog/internal/apps"
	"pathlog/internal/core"
	"pathlog/internal/instrument"
	"pathlog/internal/ir"
	"pathlog/internal/lang"
	"pathlog/internal/replay"
	"pathlog/internal/vm"
	"pathlog/internal/world"
)

// pathOracle recomputes, outside the replay engine, the path of every run
// a search makes: the sequence of symbolic branch sites with the direction
// each run took (the logged one wherever the sink steered the run with
// vm.ErrFollowLog), marking where the run began following the log. Runs
// whose path an earlier run of the same search already took are counted;
// the engine must have recognized each of them and expanded it no second
// time (replay.Result.DuplicatePaths).
type pathOracle struct {
	engine  vm.Factory
	seen    map[string]bool
	repeats int
}

func newPathOracle(engine vm.Factory) *pathOracle {
	return &pathOracle{engine: engine, seen: map[string]bool{}}
}

// factory wraps the oracle's engine so each run's branch events pass
// through a recording sink before they reach the replay engine's.
func (o *pathOracle) factory(prog *lang.Program, opts vm.Options) vm.Machine {
	run := &oracleSink{inner: opts.Sink, oracle: o}
	opts.Sink = run
	return &oracleMachine{Machine: o.engine(prog, opts), run: run}
}

// boundedEngine is the bytecode VM under the generator's step budget: a
// helper that writes a global loop counter can keep a generated loop from
// terminating, and such a run should cost fuzzBudget steps, not the VM's
// default.
func boundedEngine(prog *lang.Program, opts vm.Options) vm.Machine {
	opts.MaxSteps = fuzzBudget
	return ir.Engine(prog, opts)
}

type oracleMachine struct {
	vm.Machine
	run *oracleSink
}

// Run runs the machine and files the finished run's path.
func (m *oracleMachine) Run() (vm.Result, error) {
	res, err := m.Machine.Run()
	key := string(m.run.path)
	if m.run.oracle.seen[key] {
		m.run.oracle.repeats++
	}
	m.run.oracle.seen[key] = true
	return res, err
}

type oracleSink struct {
	inner     vm.BranchSink
	oracle    *pathOracle
	path      []byte
	following bool
}

func (s *oracleSink) OnBranch(site *lang.BranchSite, cond vm.Value, taken bool) error {
	err := s.inner.OnBranch(site, cond, taken)
	if !cond.IsSymbolic() || err == vm.ErrAbortRun {
		return err
	}
	dir := taken
	if err == vm.ErrFollowLog {
		dir = !taken
		if !s.following {
			s.following = true
			s.path = append(s.path, 'F')
		}
	}
	s.path = fmt.Appendf(s.path, "%d:%v;", site.ID, dir)
	return err
}

// completenessSeeds is the slice of generator seeds the property checks;
// completenessBudget is generous next to the searches it admits (none
// takes 50 runs).
const (
	completenessSeeds  = 1000
	completenessBudget = 5000
)

// TestReplayCompleteness is a replay-completeness property over the
// generator behind FuzzEngineParity, with main's locals read from argv.
// For each seed, a random user input is recorded under a random plan; when
// the run crashes, the recorded input is a witness that the crash is
// reachable along the logged path, so the guided search must reproduce it
// (with an input that verifies) within a generous budget. The only
// excuses are the ones the result names: a solver give-up
// (SolverStats.GaveUp) or an alternative a cap dropped (Dropped). And no
// search may expand one path twice: every run down a path an earlier run
// took (recomputed by pathOracle) is one the engine counted as a duplicate
// and did not expand.
func TestReplayCompleteness(t *testing.T) {
	ctx := context.Background()
	const inputLen = 5
	spec := &world.Spec{Args: []world.Stream{world.ArgSpec(0, "xxxx", inputLen-1)}}
	crashed, reproduced, excused, repeats := 0, 0, 0, 0
	for seed := uint64(0); seed < completenessSeeds; seed++ {
		u, err := lang.ParseUnit("gen.mc", lang.RegionApp, generateUnit(seed, inputLen))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prog, err := lang.Link([]*lang.Unit{u})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r := &genRand{s: seed ^ 0xC0FFEE}
		user := make([]byte, inputLen-1)
		for i := range user {
			user[i] = byte(1 + r.n(255))
		}
		set := map[lang.BranchID]bool{}
		for _, b := range prog.Branches {
			if r.pct(50) {
				set[b.ID] = true
			}
		}
		plan := &instrument.Plan{Strategy: "random", Instrumented: set, LogSyscalls: true, ProgHash: prog.Hash()}
		scn := &apps.Scenario{Name: "gen", Prog: prog, Spec: spec, UserBytes: map[string][]byte{"arg0": user}}
		rec, _, err := core.Record(ctx, boundedEngine, prog, spec, scn.UserBytes, plan)
		if err != nil {
			t.Fatalf("seed %d: record: %v", seed, err)
		}
		if rec == nil {
			continue // the run did not crash: no witness
		}
		crashed++
		oracle := newPathOracle(boundedEngine)
		res := reproduce(ctx, scn, rec, replay.Options{MaxRuns: completenessBudget, Engine: oracle.factory})
		if oracle.repeats != res.DuplicatePaths {
			t.Errorf("seed %d: %d runs repeated an earlier path, the engine counted %d duplicates (a path was expanded twice)",
				seed, oracle.repeats, res.DuplicatePaths)
		}
		repeats += oracle.repeats
		switch {
		case res.Reproduced:
			reproduced++
			if !verify(scn, res, rec, boundedEngine) {
				t.Errorf("seed %d: reproduced input %q does not verify", seed, res.InputBytes["arg0"])
			}
		case res.SolverStats.GaveUp > 0 || res.Dropped > 0:
			excused++
		default:
			t.Errorf("seed %d: crash at %v not reproduced in %d runs (timed out %v, %d duplicate paths, solver %+v) with no solver give-up and no dropped set — input %q, plan %v\n%s",
				seed, rec.Crash.Pos, res.Runs, res.TimedOut, res.DuplicatePaths, res.SolverStats, user, plan.IDs(), generateUnit(seed, inputLen))
		}
	}
	t.Logf("%d seeds: %d crashed, %d reproduced, %d excused; %d runs repeated a path", completenessSeeds, crashed, reproduced, excused, repeats)
	if crashed < 20 || reproduced < crashed/2 {
		t.Fatalf("the property ran nearly vacuously: %d crashing seeds, %d reproduced", crashed, reproduced)
	}
}
