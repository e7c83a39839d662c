package concolic

import (
	"context"
	"reflect"
	"testing"

	"pathlog/internal/ir"
	"pathlog/internal/lang"
	"pathlog/internal/world"
)

// listing1 is the paper's example program (Listing 1): only the two option
// branches are symbolic; everything in fibonacci is concrete.
const listing1 = `
int fibonacci(int n) {
	int a = 0;
	int b = 1;
	int i;
	for (i = 0; i < n; i++) {    // concrete branch
		int t = a + b;
		a = b;
		b = t;
	}
	return a;
}
int main() {
	char opt[8];
	getarg(0, opt, 8);
	int result = 0;
	if (opt[0] == 'a') {          // symbolic branch
		result = fibonacci(20);
	} else if (opt[0] == 'b') {   // symbolic branch
		result = fibonacci(40);
	}
	print_int(result);
	return 0;
}
`

func compile(t *testing.T, src string) *lang.Program {
	t.Helper()
	u, err := lang.ParseUnit("test.mc", lang.RegionApp, src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := lang.Link([]*lang.Unit{u})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return p
}

func branchByPosLine(p *lang.Program, line int) *lang.BranchSite {
	for _, b := range p.Branches {
		if b.Pos.Line == line {
			return b
		}
	}
	return nil
}

func TestListing1Labels(t *testing.T) {
	prog := compile(t, listing1)
	spec := &world.Spec{Args: []world.Stream{world.ArgSpec(0, "x", 4)}}
	ex := New(prog, spec, world.NewRegistry(), Options{MaxRuns: 50})
	rep := ex.Explore(context.Background())

	if rep.Runs < 3 {
		t.Fatalf("expected at least 3 runs, got %d", rep.Runs)
	}
	// Branches: for(line 6)=concrete, if 'a'(17)=symbolic, if 'b'(19)=symbolic.
	forB := branchByPosLine(prog, 6)
	ifA := branchByPosLine(prog, 17)
	ifB := branchByPosLine(prog, 19)
	if rep.Labels[ifA.ID] != Symbolic {
		t.Errorf("if(opt=='a'): %v", rep.Labels[ifA.ID])
	}
	if rep.Labels[ifB.ID] != Symbolic {
		t.Errorf("if(opt=='b'): %v", rep.Labels[ifB.ID])
	}
	if rep.Labels[forB.ID] != Concrete {
		t.Errorf("fib loop: %v", rep.Labels[forB.ID])
	}
	if got := rep.CountLabel(Symbolic); got != 2 {
		t.Errorf("symbolic count: %d", got)
	}
}

func TestExplorationFindsBothOptions(t *testing.T) {
	// The explorer must discover inputs 'a' and 'b' from seed "x": the fib
	// loop runs 20 and 40 iterations on those paths, so per-branch execution
	// counts reveal whether both paths were explored.
	prog := compile(t, listing1)
	spec := &world.Spec{Args: []world.Stream{world.ArgSpec(0, "x", 4)}}
	ex := New(prog, spec, world.NewRegistry(), Options{MaxRuns: 50})
	rep := ex.Explore(context.Background())

	forB := branchByPosLine(prog, 6)
	// Paths: 'x' (no fib), 'a' (21 execs), 'b' (41 execs) => >= 62.
	if rep.ExecCount[forB.ID] < 62 {
		t.Errorf("fib loop execs: %d; exploration missed an option path",
			rep.ExecCount[forB.ID])
	}
}

func TestCoverageBudget(t *testing.T) {
	prog := compile(t, listing1)
	spec := &world.Spec{Args: []world.Stream{world.ArgSpec(0, "x", 4)}}

	low := New(prog, spec, world.NewRegistry(), Options{MaxRuns: 1}).Explore(context.Background())
	high := New(prog, spec, world.NewRegistry(), Options{MaxRuns: 50}).Explore(context.Background())

	total := len(prog.Branches)
	if low.Coverage(total) > high.Coverage(total) {
		t.Errorf("coverage: low=%v high=%v", low.Coverage(total), high.Coverage(total))
	}
	// With a single run on seed "x", the fibonacci loop is never entered:
	// its branch location must stay concrete or unvisited-labeled, and at
	// least the two option branches are seen.
	if low.Runs != 1 {
		t.Errorf("low runs: %d", low.Runs)
	}
	if high.CountLabel(Symbolic) < low.CountLabel(Symbolic) {
		t.Error("symbolic labels should not shrink with budget")
	}
}

func TestRelabelConcreteToSymbolic(t *testing.T) {
	// A helper executed first with a constant, later with input: the branch
	// inside is labeled concrete first, then relabeled symbolic (§2.1).
	src := `
	int check(int v) {
		if (v > 10) { return 1; }   // concrete on first call, symbolic later
		return 0;
	}
	int main() {
		char a[4];
		int r = check(5);
		getarg(0, a, 4);
		r += check(a[0]);
		exit(r);
		return 0;
	}
	`
	prog := compile(t, src)
	spec := &world.Spec{Args: []world.Stream{world.ArgSpec(0, "z", 2)}}
	rep := New(prog, spec, world.NewRegistry(), Options{MaxRuns: 20}).Explore(context.Background())
	b := branchByPosLine(prog, 3)
	if rep.Labels[b.ID] != Symbolic {
		t.Errorf("relabel: got %v", rep.Labels[b.ID])
	}
}

func TestUnvisitedStaysUnvisited(t *testing.T) {
	// A function never called must leave its branches unvisited.
	src := `
	int dead(int v) {
		if (v > 0) { return 1; }
		return 0;
	}
	int main() {
		char a[4];
		getarg(0, a, 4);
		if (a[0] == 'Z' && a[1] == 'Q') { crash(1); }
		return 0;
	}
	`
	prog := compile(t, src)
	spec := &world.Spec{Args: []world.Stream{world.ArgSpec(0, "ab", 4)}}
	rep := New(prog, spec, world.NewRegistry(), Options{MaxRuns: 30}).Explore(context.Background())
	deadBranch := branchByPosLine(prog, 3)
	if rep.Labels[deadBranch.ID] != Unvisited {
		t.Errorf("dead branch: %v", rep.Labels[deadBranch.ID])
	}
	if rep.Coverage(len(prog.Branches)) >= 1.0 {
		t.Error("coverage should be below 100% with dead code")
	}
}

func TestExplorerFindsGuardedCrash(t *testing.T) {
	// The explorer must synthesize the two-byte guard 'Z','Q' by negating
	// constraints — the core capability replay depends on.
	src := `
	int main() {
		char a[4];
		getarg(0, a, 4);
		if (a[0] == 'Z') {
			if (a[1] == 'Q') { crash(1); }
		}
		return 0;
	}
	`
	prog := compile(t, src)
	spec := &world.Spec{Args: []world.Stream{world.ArgSpec(0, "ab", 4)}}
	rep := New(prog, spec, world.NewRegistry(), Options{MaxRuns: 30}).Explore(context.Background())
	inner := branchByPosLine(prog, 6)
	if rep.ExecCount[inner.ID] == 0 {
		t.Fatal("inner guard never reached; solver failed to flip outer guard")
	}
	if rep.Labels[inner.ID] != Symbolic {
		t.Errorf("inner guard label: %v", rep.Labels[inner.ID])
	}
}

func TestHistogramConsistency(t *testing.T) {
	prog := compile(t, listing1)
	spec := &world.Spec{Args: []world.Stream{world.ArgSpec(0, "a", 2)}}
	rep := New(prog, spec, world.NewRegistry(), Options{MaxRuns: 10}).Explore(context.Background())

	var execs, symExecs int64
	for _, n := range rep.ExecCount {
		execs += n
	}
	for _, n := range rep.SymExecCount {
		symExecs += n
	}
	if execs != rep.BranchExecs || symExecs != rep.SymbolicExecs {
		t.Fatalf("histogram mismatch: %d/%d vs %d/%d",
			execs, symExecs, rep.BranchExecs, rep.SymbolicExecs)
	}
	if symExecs > execs {
		t.Fatal("symbolic execs exceed total execs")
	}
	// Per-location: symbolic executions never exceed total executions.
	for id, n := range rep.SymExecCount {
		if n > rep.ExecCount[id] {
			t.Fatalf("branch %d: sym %d > total %d", id, n, rep.ExecCount[id])
		}
	}
}

func TestDeterministicExploration(t *testing.T) {
	run := func() (int, int) {
		prog := compile(t, listing1)
		spec := &world.Spec{Args: []world.Stream{world.ArgSpec(0, "x", 4)}}
		rep := New(prog, spec, world.NewRegistry(), Options{MaxRuns: 25}).Explore(context.Background())
		return rep.Runs, rep.CountLabel(Symbolic)
	}
	r1, s1 := run()
	r2, s2 := run()
	if r1 != r2 || s1 != s2 {
		t.Fatalf("nondeterministic exploration: %d/%d vs %d/%d", r1, s1, r2, s2)
	}
}

func TestLabelString(t *testing.T) {
	if Unvisited.String() != "unvisited" || Concrete.String() != "concrete" ||
		Symbolic.String() != "symbolic" {
		t.Error("label names")
	}
}

// TestNilEngineIsBytecodeVM pins the one engine rule: a nil Options.Engine
// runs every exploration on the bytecode VM, never on the tree-walking
// oracle.
func TestNilEngineIsBytecodeVM(t *testing.T) {
	prog := compile(t, listing1)
	spec := &world.Spec{Args: []world.Stream{world.ArgSpec(0, "x", 4)}}
	ex := New(prog, spec, world.NewRegistry(), Options{})
	if got, want := reflect.ValueOf(ex.opts.Engine).Pointer(), reflect.ValueOf(ir.Engine).Pointer(); got != want {
		t.Fatalf("nil Options.Engine resolved to %#x, want ir.Engine (%#x)", got, want)
	}
}
