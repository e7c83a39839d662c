package solver

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"pathlog/internal/sym"
)

// This file checks the solver's lifecycle against fresh solvers: a cache
// table that grows mid-sequence, and recycling through the free list across
// garbage collections, must never change an answer.

// copiesOf conjoins n node-for-node rebuilds of seed's oracle problem:
// pointer-distinct, structurally equal constraints over the same domains,
// the shape of a replay search re-solving rebuilt path conditions. The
// conjunction has the answers of one copy, and its length grows the
// solver's cache table.
func copiesOf(seed uint64, n int) (Problem, Options) {
	p, opts := genProblem(seed)
	for i := 1; i < n; i++ {
		q, _ := genProblem(seed)
		p.Constraints = append(p.Constraints, q.Constraints...)
	}
	return p, opts
}

// outcome classifies a call by the counter it moved.
func outcome(before, after Stats) string {
	switch {
	case after.Sat > before.Sat:
		return "sat"
	case after.Unsat > before.Unsat:
		return "unsat"
	case after.GaveUp > before.GaveUp:
		return "gave up"
	}
	return "none"
}

// TestReusedSolverMatchesFresh runs one Solver through a sequence of oracle
// problems — some conjoined from many rebuilt copies, so its table grows
// mid-sequence up to the cap — and recycles it through Put, two garbage
// collections and Get along the way. On every problem it must give the
// answer, model and counters of a fresh Solver, and every model must
// satisfy every constraint.
func TestReusedSolverMatchesFresh(t *testing.T) {
	s := New(Options{})
	sizes := []int{len(s.norm)}
	recycled := 0
	for seed := uint64(0); seed < 600; seed++ {
		copies := 1
		if seed%40 == 39 {
			copies = 1 << (seed / 40 % 10) // up to 512 copies: past the cap
		}
		p, opts := copiesOf(seed, copies)
		// Options only bound effort; the caches do not depend on them.
		s.opts = opts.withDefaults()
		if seed%25 == 24 {
			recycle(t, s, opts)
			recycled++
		}
		matchFresh(t, s, p, opts, fmt.Sprintf("seed %d (%d copies)", seed, copies))
		if n := len(s.norm); n != sizes[len(sizes)-1] {
			sizes = append(sizes, n)
		}
	}
	Put(s)
	if len(sizes) < 3 || sizes[len(sizes)-1] != 1<<normTabBits {
		t.Errorf("the table grew %v: want at least two grows, ending at the cap %d", sizes, 1<<normTabBits)
	}
	if recycled == 0 {
		t.Error("the solver was never recycled")
	}
}

// TestCappedSolverMatchesFresh starts from a Solver whose table a large
// problem grew to the cap, as a long search or the pre-deployment analysis
// leaves a recycled Solver, and runs it through the corpus of
// TestReusedSolverMatchesFresh, recycling it through Put, two collections
// and Get before every tenth problem. The table keeps the entries of every
// earlier problem, so every answer must match a fresh Solver's.
func TestCappedSolverMatchesFresh(t *testing.T) {
	s := New(Options{})
	p, opts := copiesOf(39, 1024)
	matchFresh(t, s, p, opts, "the growing problem")
	if len(s.norm) != 1<<normTabBits {
		t.Fatalf("table %d, want the cap %d", len(s.norm), 1<<normTabBits)
	}
	for seed := uint64(0); seed < 600; seed++ {
		p, opts := genProblem(seed)
		s.opts = opts.withDefaults()
		if seed%10 == 0 {
			recycle(t, s, opts)
		}
		matchFresh(t, s, p, opts, fmt.Sprintf("seed %d", seed))
	}
	Put(s)
	if len(s.norm) != 1<<normTabBits {
		t.Errorf("the corpus resized the capped table to %d", len(s.norm))
	}
}

// recycle puts s back on the free list and takes it back after two garbage
// collections.
func recycle(t *testing.T, s *Solver, opts Options) {
	t.Helper()
	Put(s)
	runtime.GC()
	runtime.GC()
	if got := Get(opts); got != s {
		t.Fatal("Get after two collections returned another Solver")
	}
}

// matchFresh solves p on s and on a fresh Solver: the answer, model and
// counters must agree, and a model must satisfy every constraint.
func matchFresh(t *testing.T, s *Solver, p Problem, opts Options, name string) {
	t.Helper()
	before := s.Stats()
	asn, ok := s.Solve(p)
	after := s.Stats()
	fresh := New(opts)
	wantAsn, wantOK := fresh.Solve(p)
	if got, want := outcome(before, after), outcome(Stats{}, fresh.Stats()); got != want || ok != wantOK {
		t.Fatalf("%s: reused solver answered %s, fresh %s", name, got, want)
	}
	delta := after
	delta.Calls -= before.Calls
	delta.Sat -= before.Sat
	delta.Unsat -= before.Unsat
	delta.GaveUp -= before.GaveUp
	delta.Nodes -= before.Nodes
	delta.Work -= before.Work
	delta.Atoms -= before.Atoms
	delta.Fallbacks -= before.Fallbacks
	if delta != fresh.Stats() {
		t.Fatalf("%s: reused solver counted %+v, fresh %+v", name, delta, fresh.Stats())
	}
	if ok {
		for id, v := range wantAsn {
			if asn[id] != v {
				t.Fatalf("%s: reused model %v, fresh model %v", name, asn, wantAsn)
			}
		}
		for _, c := range p.Constraints {
			if !c.Holds(asn) {
				t.Fatalf("%s: model %v violates %v", name, asn, c)
			}
		}
	}
}

// freeListOpts are options no other test solves under, so the free list
// entries this file checks are its own.
var freeListOpts = Options{MaxNodes: 4321}

// TestFreeListSurvivesGC checks that a Solver Put before two garbage
// collections is the one Get returns after them (a sync.Pool would have
// dropped it), that the recycled Solver keeps its cache, and that the free
// list never holds more than GOMAXPROCS solvers, dropping the oldest first.
func TestFreeListSurvivesGC(t *testing.T) {
	s := Get(freeListOpts)
	p, _ := genProblem(7)
	s.Solve(p)
	recycle(t, s, freeListOpts)
	if isZero(s.norm) {
		t.Error("the recycled Solver lost its cache")
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Errorf("recycled Solver kept its counters: %+v", st)
	}

	n := runtime.GOMAXPROCS(0)
	var put []*Solver
	for i := 0; i < n+3; i++ {
		put = append(put, New(freeListOpts))
		Put(put[i])
		if l := freeLen(); l > n {
			t.Fatalf("free list holds %d solvers, GOMAXPROCS is %d", l, n)
		}
	}
	for i := 0; i < n; i++ {
		if got := Get(freeListOpts); got != put[len(put)-1-i] {
			t.Fatalf("Get %d did not return the %d-th most recently Put solver", i, i+1)
		}
	}
	if got := Get(freeListOpts); slices.Contains(put, got) {
		t.Error("the free list kept more than GOMAXPROCS solvers")
	}
}

func isZero[T comparable](tab []T) bool {
	var zero T
	for _, x := range tab {
		if x != zero {
			return false
		}
	}
	return true
}

func freeLen() int { return free.Len() }

// TestTablesStartSmall pins the sizing rule: a fresh Solver's table is
// minimum-size, a call grows it to slotsPerConstraint slots per
// constraint, and a smaller call never shrinks it.
func TestTablesStartSmall(t *testing.T) {
	s := New(Options{})
	if len(s.norm) != 1<<minTabBits {
		t.Fatalf("fresh table %d, want %d", len(s.norm), 1<<minTabBits)
	}
	var cs []sym.Constraint
	for i := 0; i < 100; i++ {
		cs = append(cs, sym.Constraint{E: sym.Lt(in(i%4), sym.NewConst(int64(200+i))), Truth: true})
	}
	s.Solve(Problem{Constraints: cs, Domains: byteDomains(4), Seed: sym.MapAssignment{}})
	if len(s.norm) != 2048 {
		t.Fatalf("100 constraints: table %d, want 2048", len(s.norm))
	}
	s.Solve(Problem{Constraints: cs[:3], Domains: byteDomains(4), Seed: sym.MapAssignment{}})
	if len(s.norm) != 2048 {
		t.Fatalf("a smaller call resized the table to %d", len(s.norm))
	}
}

// TestRebuiltProblemReusesNormalForms checks that a problem rebuilt node
// for node, as each replay run rebuilds the last run's path condition, is
// re-solved from the cache: once the cache is warm, solving the problem and
// its rebuild in turn normalizes nothing, and allocates exactly as much as
// solving one problem again. The problems are the oracle's, a diff child
// problem of 64 constraints and a replay's follow-the-log solve of 320.
func TestRebuiltProblemReusesNormalForms(t *testing.T) {
	check := func(name string, p, q Problem, opts Options) {
		s := New(opts)
		same := testing.AllocsPerRun(20, func() { s.Solve(p) })
		pair, turn := [2]Problem{p, q}, 0
		rebuilt := testing.AllocsPerRun(20, func() {
			s.Solve(pair[turn%2])
			turn++
		})
		if rebuilt != same {
			t.Errorf("%s: a rebuilt problem allocates %v per Solve, the same problem %v", name, rebuilt, same)
		}
		n := len(s.entrySlab)
		s.Solve(q)
		s.Solve(p)
		if len(s.entrySlab) != n {
			t.Errorf("%s: re-solving the warm problem and its rebuild normalized constraints again", name)
		}
	}
	for seed := uint64(0); seed < 40; seed++ {
		p, opts := genProblem(seed)
		q, _ := genProblem(seed)
		check(fmt.Sprintf("seed %d", seed), p, q, opts)
	}
	check("diff child", diffGiveUp(), diffGiveUp(), Options{})
	check("followed path", followedPath(), followedPath(), Options{})
}
