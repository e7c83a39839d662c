package concolic

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pathlog/internal/ir"
	"pathlog/internal/lang"
	"pathlog/internal/sym"
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

// refSliceRelevant is the map-based slicer sliceRelevant replaced, kept as
// the differential reference: one backward pass over the prefix, each
// constraint's variable set rebuilt from its expression.
func refSliceRelevant(prefix []pathCond, negated sym.Constraint) []sym.Constraint {
	varSet := func(e sym.Expr) map[int]struct{} {
		set := make(map[int]struct{})
		for _, id := range sym.AppendVarIDs(e, nil) {
			set[id] = struct{}{}
		}
		return set
	}
	relevant := varSet(negated.E)
	keep := make([]bool, len(prefix))
	for i := len(prefix) - 1; i >= 0; i-- {
		vars := varSet(prefix[i].c.E)
		shared := false
		for v := range vars {
			if _, ok := relevant[v]; ok {
				shared = true
				break
			}
		}
		if !shared {
			continue
		}
		keep[i] = true
		for v := range vars {
			relevant[v] = struct{}{}
		}
	}
	var out []sym.Constraint
	for i, k := range keep {
		if k {
			out = append(out, prefix[i].c)
		}
	}
	return append(out, negated)
}

// checkSlices slices conds at each point in at with e's scratch and
// compares every slice with refSliceRelevant.
func (e *Explorer) checkSlices(conds []pathCond, at []int) error {
	e.collectVars(conds)
	for _, i := range at {
		got := e.sliceRelevant(conds, i)
		want := refSliceRelevant(conds[:i], conds[i].c.Negated())
		if !slices.Equal(got, want) {
			return fmt.Errorf("slice at %d of %d: got %d constraints %v, want %d %v",
				i, len(conds), len(got), got, len(want), want)
		}
	}
	return nil
}

// negationPoints returns the indices generateChildren negates on a path of
// n constraints.
func (e *Explorer) negationPoints(n int) []int {
	stride := max(1, n/maxChildrenPerRun)
	var at []int
	for i := 0; i < n; i += stride {
		at = append(at, i)
	}
	return at
}

// randomPath builds a path condition of n constraints over the variable IDs
// in ids: sums, products and comparisons of one to four variables (often
// repeating one), with every seventh constraint variable-free.
func randomPath(r *rand.Rand, n int, ids []int) []pathCond {
	conds := make([]pathCond, n)
	for i := range conds {
		var e sym.Expr
		if i%7 == 3 {
			e = sym.NewConst(int64(r.Intn(3)))
		} else {
			e = sym.NewInput(ids[r.Intn(len(ids))], "", 0, 255)
			for k := r.Intn(4); k > 0; k-- {
				v := sym.NewInput(ids[r.Intn(len(ids))], "", 0, 255)
				op := []sym.Op{sym.OpAdd, sym.OpMul, sym.OpXor}[r.Intn(3)]
				e = sym.NewBin(op, e, v)
			}
			e = sym.NewBin(sym.OpLt, e, sym.NewConst(int64(r.Intn(256))))
		}
		conds[i] = pathCond{c: sym.Constraint{E: e, Truth: r.Intn(2) == 0}}
	}
	return conds
}

// TestSliceRelevantMatchesReference holds the flat-list slicer to the
// map-based one on random paths: dense, sparse and large variable IDs,
// repeated variables, constant constraints, and prefixes of length 0, 1
// and 4096.
func TestSliceRelevantMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name string
		ids  []int
	}{
		{"dense", []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{"sparse", []int{3, 97, 1000, 4093, 65535}},
		{"large", []int{1 << 20, 1<<20 + 1, 1<<22 - 1}},
		{"single", []int{11}},
	} {
		for _, n := range []int{1, 2, 64, 4097} {
			conds := randomPath(r, n, tc.ids)
			at := []int{0, n / 2, n - 1}
			for k := 0; k < 8; k++ {
				at = append(at, r.Intn(n))
			}
			ex := &Explorer{}
			if err := ex.checkSlices(conds, at); err != nil {
				t.Fatalf("%s, %d constraints: %v", tc.name, n, err)
			}
		}
	}
}

// TestSliceRelevantScratchIsPerRun slices a long run and then a shorter one
// on one Explorer, and holds the second run's slices to a fresh Explorer's:
// nothing of the first run's per-run lists or marks may leak into them,
// including across a wrap of the mark epoch.
func TestSliceRelevantScratchIsPerRun(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	long := randomPath(r, 4097, []int{0, 5, 9, 1 << 16})
	short := randomPath(r, 300, []int{0, 1, 2, 5, 9})
	// Variable-free, so only a leak of the long run's lists could keep it.
	short[0].c.E = sym.NewConst(1)
	shortAt := []int{0, 1, 150, 299}
	for k := 0; k < 20; k++ {
		shortAt = append(shortAt, r.Intn(len(short)))
	}

	reused := &Explorer{}
	if err := reused.checkSlices(long, []int{4096, 2048, 1}); err != nil {
		t.Fatal(err)
	}
	reused.epoch = math.MaxUint32 - 3 // the short run's slices wrap it
	fresh := &Explorer{}
	fresh.collectVars(short)
	reused.collectVars(short)
	for _, i := range shortAt {
		want := slices.Clone(fresh.sliceRelevant(short, i))
		if got := reused.sliceRelevant(short, i); !slices.Equal(got, want) {
			t.Fatalf("slice at %d after a long run: got %v, want %v", i, got, want)
		}
	}
	if err := reused.checkSlices(short, shortAt); err != nil {
		t.Fatal(err)
	}
}
