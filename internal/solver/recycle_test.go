package solver

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"pathlog/internal/sym"
)

// This file checks the solver's lifecycle against fresh solvers: cache tables
// that grow mid-sequence, and recycling through the free list across
// garbage collections, must never change an answer.

// copiesOf conjoins n node-for-node rebuilds of seed's oracle problem:
// pointer-distinct, structurally equal constraints over the same domains,
// the shape of a replay search re-solving rebuilt path conditions. The
// conjunction has the answers of one copy, and its length grows the
// solver's cache tables.
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
// problems — some conjoined from many rebuilt copies, so its tables grow
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
		t.Errorf("tables grew %v: want at least two grows, ending at the cap %d", sizes, 1<<normTabBits)
	}
	if recycled == 0 {
		t.Error("the solver was never recycled")
	}
}

// TestCappedSolverMatchesFresh starts from a Solver whose tables a large
// problem grew to the cap, as a long search or the pre-deployment analysis
// leaves a recycled Solver, and runs it through the corpus of
// TestReusedSolverMatchesFresh, recycling it through Put, two collections
// and Get before every tenth problem. Put clears only the slots the last
// search wrote, so every recycle must leave both pointer-keyed levels
// holding no expression, and every answer must match a fresh Solver's.
func TestCappedSolverMatchesFresh(t *testing.T) {
	s := New(Options{})
	p, opts := copiesOf(39, 1024)
	matchFresh(t, s, p, opts, "the growing problem")
	if len(s.norm) != 1<<normTabBits || len(s.hashTab) != 1<<hashTabBits {
		t.Fatalf("tables %d/%d, want the caps %d/%d", len(s.norm), len(s.hashTab), 1<<normTabBits, 1<<hashTabBits)
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
		t.Errorf("the corpus resized the capped tables to %d", len(s.norm))
	}
}

// recycle puts s back on the free list, checks that no pointer-keyed cache
// slot still holds an expression of the finished search, and takes s back
// after two garbage collections.
func recycle(t *testing.T, s *Solver, opts Options) {
	t.Helper()
	Put(s)
	if !isZero(s.norm) || !isZero(s.hashTab) {
		t.Fatal("Put left pointer-keyed cache entries behind")
	}
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
// dropped it), that Put clears the pointer-keyed cache levels but keeps
// the structure-keyed one, and that the free list never holds more than
// GOMAXPROCS solvers, dropping the oldest first.
func TestFreeListSurvivesGC(t *testing.T) {
	s := Get(freeListOpts)
	p, _ := genProblem(7)
	s.Solve(p)
	recycle(t, s, freeListOpts)
	if isZero(s.snorm) {
		t.Error("Put dropped the structure-keyed cache level")
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

// TestTablesStartSmall pins the sizing rule: a fresh Solver's tables are
// minimum-size, a call grows them to slotsPerConstraint slots per
// constraint, and a smaller call never shrinks them.
func TestTablesStartSmall(t *testing.T) {
	s := New(Options{})
	if len(s.norm) != 1<<minTabBits || len(s.snorm) != 1<<minTabBits || len(s.hashTab) != 2<<minTabBits {
		t.Fatalf("fresh tables %d/%d/%d", len(s.norm), len(s.snorm), len(s.hashTab))
	}
	var cs []sym.Constraint
	for i := 0; i < 100; i++ {
		cs = append(cs, sym.Constraint{E: sym.Lt(in(i%4), sym.NewConst(int64(200+i))), Truth: true})
	}
	s.Solve(Problem{Constraints: cs, Domains: byteDomains(4), Seed: sym.MapAssignment{}})
	if len(s.norm) != 1024 || len(s.snorm) != 1024 || len(s.hashTab) != 2048 {
		t.Fatalf("100 constraints: tables %d/%d/%d, want 1024/1024/2048", len(s.norm), len(s.snorm), len(s.hashTab))
	}
	s.Solve(Problem{Constraints: cs[:3], Domains: byteDomains(4), Seed: sym.MapAssignment{}})
	if len(s.norm) != 1024 {
		t.Fatalf("a smaller call resized the tables to %d", len(s.norm))
	}
}
