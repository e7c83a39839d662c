package instrument_test

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"pathlog/internal/apps"
	"pathlog/internal/concolic"
	"pathlog/internal/core"
	"pathlog/internal/instrument"
	"pathlog/internal/lang"
	"pathlog/internal/replay"
	"pathlog/internal/static"
	"pathlog/internal/world"
)

// checkMemo holds one plan's compiled form to its fields: the memoised
// fingerprint equals an uncached recompute, and the dense table agrees
// with Instrumented for every branch ID of the program and one past the
// table's end, and ends on an instrumented ID.
func checkMemo(t *testing.T, label string, prog *lang.Program, p *instrument.Plan) {
	t.Helper()
	if got, want := p.Fingerprint(), instrument.RecomputeFingerprint(p); got != want {
		t.Errorf("%s: memoised fingerprint %s, recompute %s", label, got, want)
	}
	tab := p.Table()
	for id := 0; id <= max(len(prog.Branches), len(tab)); id++ {
		got := id < len(tab) && tab[id]
		if want := p.Instrumented[lang.BranchID(id)]; got != want {
			t.Errorf("%s: table says b%d logged=%v, Instrumented says %v", label, id, got, want)
		}
	}
	if len(tab) > 0 && !tab[len(tab)-1] {
		t.Errorf("%s: table of %d entries does not end on an instrumented ID", label, len(tab))
	}
	if p.Instruments() != (p.LogSyscalls || p.NumInstrumented() > 0) {
		t.Errorf("%s: Instruments() disagrees with the plan's fields", label)
	}
}

// checkConcurrentFirstUse decodes a fresh copy of p and races eight first
// callers of Fingerprint and Table on it: every caller must see the same
// compiled form, equal to p's.
func checkConcurrentFirstUse(t *testing.T, label string, p *instrument.Plan) {
	t.Helper()
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := instrument.DecodePlan(data)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	const callers = 8
	fps := make([]string, callers)
	tabs := make([][]bool, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if i%2 == 0 {
				fps[i], tabs[i] = fresh.Fingerprint(), fresh.Table()
			} else {
				tabs[i], fps[i] = fresh.Table(), fresh.Fingerprint()
			}
		}()
	}
	close(start)
	wg.Wait()
	want := p.Fingerprint()
	for i := range callers {
		if fps[i] != want {
			t.Errorf("%s: concurrent caller %d saw fingerprint %s, want %s", label, i, fps[i], want)
		}
		if len(tabs[i]) != len(p.Table()) || (len(tabs[i]) > 0 && &tabs[i][0] != &tabs[0][0]) {
			t.Errorf("%s: concurrent caller %d saw a different table", label, i)
		}
	}
}

// memoScenario is one apps scenario with the analyses its plans derive from.
type memoScenario struct {
	name string
	prog *lang.Program
	pc   *instrument.PlanContext
	rec  func(*instrument.Plan) *replay.Recording
}

// memoScenarios analyses every apps scenario once, with small budgets:
// the memo property does not depend on how good the plans are.
func memoScenarios(t *testing.T) []memoScenario {
	t.Helper()
	analyses := map[*lang.Program]instrument.Inputs{}
	var out []memoScenario
	for _, name := range apps.ScenarioNames() {
		s, err := apps.ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		an := apps.AnalysisScenarioFor(name, s)
		in, ok := analyses[an.Prog]
		if !ok {
			in = instrument.Inputs{
				Dynamic: concolic.New(an.Prog, an.Spec, world.NewRegistry(an.Spec),
					concolic.Options{MaxRuns: 8}).Explore(context.Background()),
				Static: static.Analyze(an.Prog, static.Options{}),
			}
			analyses[an.Prog] = in
		}
		out = append(out, memoScenario{
			name: name,
			prog: s.Prog,
			pc:   instrument.NewPlanContext(s.Prog, in, true),
			rec: func(p *instrument.Plan) *replay.Recording {
				rec, _, err := core.Record(context.Background(), nil, s.Prog, s.Spec, s.UserBytes, p)
				if err != nil {
					t.Fatalf("%s: record: %v", name, err)
				}
				return rec
			},
		})
	}
	return out
}

// memoProfile fakes a search profile under base that both promotes and
// demotes: the first uninstrumented branch blew the search up, and the
// first instrumented one logged bits that never disagreed.
func memoProfile(prog *lang.Program, base *instrument.Plan) *instrument.SearchProfile {
	prof := &instrument.SearchProfile{
		PlanFingerprint: base.Fingerprint(),
		ProgHash:        base.ProgHash,
		Runs:            10,
		Aborts:          9,
		Branches:        map[lang.BranchID]*instrument.BranchCost{},
	}
	var promoted, demoted bool
	for _, b := range prog.Branches {
		switch {
		case !base.Instrumented[b.ID] && !promoted:
			prof.Branches[b.ID] = &instrument.BranchCost{Forks: 20, AbortedRuns: 9, SolverCalls: 20}
			promoted = true
		case base.Instrumented[b.ID] && !demoted:
			prof.Branches[b.ID] = &instrument.BranchCost{LoggedExecs: 30}
			demoted = true
		}
	}
	return prof
}

// TestPlanMemoMatchesRecompute covers every path that produces a Plan:
// StrategyForMethod for each method over every apps scenario, Budgeted,
// refinement with promotion and demotion, DecodePlan and LoadPlan, and
// the recording-envelope decode. Each plan's memoised compiled form must
// match its fields, and concurrent first callers must agree on it.
func TestPlanMemoMatchesRecompute(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	for _, sc := range memoScenarios(t) {
		plans := map[string]*instrument.Plan{}
		add := func(label string, p *instrument.Plan, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.name, label, err)
			}
			plans[label] = p
		}
		for _, m := range append([]instrument.Method{instrument.MethodNone}, instrument.Methods...) {
			p, err := instrument.StrategyForMethod(m).Plan(ctx, sc.pc)
			add(m.String(), p, err)
		}
		for _, k := range []int{0, 1, 5, 21} {
			p, err := instrument.Budgeted(instrument.All(), k).Plan(ctx, sc.pc)
			add(fmt.Sprintf("budgeted(all,%d)", k), p, err)
		}
		base := plans["dynamic+static"]
		prof := memoProfile(sc.prog, base)
		strat, err := instrument.Refine(base, prof, prof.TopBlowup(1, base.Instrumented), prof.Demotable(base.Instrumented))
		if err != nil {
			t.Fatalf("%s: refine: %v", sc.name, err)
		}
		gen1, err := strat.Plan(ctx, sc.pc)
		add("refine", gen1, err)
		if gen1.Generation != 1 || gen1.Parent != base.Fingerprint() {
			t.Errorf("%s: refined plan lineage gen %d parent %s", sc.name, gen1.Generation, gen1.Parent)
		}

		built := make([]string, 0, len(plans))
		for label := range plans {
			built = append(built, label)
		}
		for i, label := range built {
			p := plans[label]
			data, err := p.Encode()
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := instrument.DecodePlan(data)
			add(label+"/decode", decoded, err)
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", sc.name, i))
			if err := p.Save(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := instrument.LoadPlan(path)
			add(label+"/load", loaded, err)
			if rec := sc.rec(p); rec != nil {
				data, err := rec.Encode()
				if err != nil {
					t.Fatal(err)
				}
				got, err := replay.DecodeRecording(data)
				if err != nil {
					t.Fatalf("%s/%s: decode recording: %v", sc.name, label, err)
				}
				add(label+"/recording", got.Plan, nil)
			}
		}
		for label, p := range plans {
			checkMemo(t, sc.name+"/"+label, sc.prog, p)
		}
		for _, label := range []string{"dynamic+static", "all branches", "refine"} {
			checkConcurrentFirstUse(t, sc.name+"/"+label, plans[label])
		}
	}
}
