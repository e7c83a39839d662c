package solver

import (
	"testing"
	"testing/quick"

	"pathlog/internal/sym"
)

func byteDomains(n int) []VarDomain {
	d := make([]VarDomain, 0, n)
	for i := 0; i < n; i++ {
		d = append(d, VarDomain{ID: i, Lo: 0, Hi: 255})
	}
	return d
}

func in(id int) *sym.Input { return sym.NewInput(id, "", 0, 255) }

func TestSolveSingleEquality(t *testing.T) {
	s := New(Options{})
	asn, ok := s.Solve(Problem{
		Constraints: []sym.Constraint{{E: sym.Eq(in(0), sym.NewConst(42)), Truth: true}},
		Domains:     byteDomains(1),
		Seed:        sym.MapAssignment{0: 0},
	})
	if !ok {
		t.Fatal("expected sat")
	}
	if asn[0] != 42 {
		t.Fatalf("got %d, want 42", asn[0])
	}
}

func TestSolveSeedFastPath(t *testing.T) {
	s := New(Options{})
	asn, ok := s.Solve(Problem{
		Constraints: []sym.Constraint{{E: sym.Lt(in(0), sym.NewConst(100)), Truth: true}},
		Domains:     byteDomains(1),
		Seed:        sym.MapAssignment{0: 7},
	})
	if !ok || asn[0] != 7 {
		t.Fatalf("seed should satisfy directly: ok=%v asn=%v", ok, asn)
	}
	if s.Stats().Nodes != 0 {
		t.Errorf("fast path should not search, nodes=%d", s.Stats().Nodes)
	}
}

func TestSolveConjunction(t *testing.T) {
	s := New(Options{})
	cs := []sym.Constraint{
		{E: sym.NewBin(sym.OpGe, in(0), sym.NewConst(10)), Truth: true},
		{E: sym.NewBin(sym.OpLe, in(0), sym.NewConst(20)), Truth: true},
		{E: sym.Ne(in(0), sym.NewConst(15)), Truth: true},
	}
	asn, ok := s.Solve(Problem{Constraints: cs, Domains: byteDomains(1), Seed: sym.MapAssignment{0: 15}})
	if !ok {
		t.Fatal("expected sat")
	}
	if v := asn[0]; v < 10 || v > 20 || v == 15 {
		t.Fatalf("got %d", v)
	}
}

func TestSolveUnsat(t *testing.T) {
	s := New(Options{})
	cs := []sym.Constraint{
		{E: sym.NewBin(sym.OpLt, in(0), sym.NewConst(5)), Truth: true},
		{E: sym.NewBin(sym.OpGt, in(0), sym.NewConst(10)), Truth: true},
	}
	_, ok := s.Solve(Problem{Constraints: cs, Domains: byteDomains(1), Seed: sym.MapAssignment{}})
	if ok {
		t.Fatal("expected unsat")
	}
	if st := s.Stats(); st.Unsat != 1 || st.GaveUp != 0 {
		t.Errorf("propagation refutes x<5 && x>10: want a proof, got %+v", st)
	}
}

// TestSolveGiveUpIsNotUnsat checks that every way of running out of budget
// counts as a give-up, never as a proof.
func TestSolveGiveUpIsNotUnsat(t *testing.T) {
	// x*y % 7 == 3 with x, y in [0,255] is sat (x=1, y=3) but the seed
	// misses, and a two-node budget stops the search first.
	mod := sym.Eq(sym.NewBin(sym.OpMod, sym.Mul(in(0), in(1)), sym.NewConst(7)), sym.NewConst(3))
	cases := []struct {
		name string
		opts Options
		p    Problem
	}{
		{"nodes", Options{MaxNodes: 2}, Problem{
			Constraints: []sym.Constraint{{E: mod, Truth: true}},
			Domains:     byteDomains(2), Seed: sym.MapAssignment{}}},
		{"work", Options{MaxWork: 10}, Problem{
			Constraints: []sym.Constraint{{E: mod, Truth: true}},
			Domains:     byteDomains(2), Seed: sym.MapAssignment{}}},
		// Unsat on [0,255] (x*x % 4 is 0 or 1), but two values per variable
		// leave the enumeration incomplete.
		{"values", Options{MaxValuesPerVar: 2}, Problem{
			Constraints: []sym.Constraint{{E: sym.Eq(sym.NewBin(sym.OpMod, sym.Mul(in(0), in(0)), sym.NewConst(4)), sym.NewConst(2)), Truth: true}},
			Domains:     byteDomains(1), Seed: sym.MapAssignment{}}},
	}
	for _, tc := range cases {
		s := New(tc.opts)
		if _, ok := s.Solve(tc.p); ok {
			t.Fatalf("%s: expected the budget to stop the search", tc.name)
		}
		if st := s.Stats(); st.GaveUp != 1 || st.Unsat != 0 {
			t.Errorf("%s: budget exhaustion must count as GaveUp: %+v", tc.name, st)
		}
	}
}

// TestSolveExhaustedSearchProves checks that a search which tried every value
// of every variable counts as a proof.
func TestSolveExhaustedSearchProves(t *testing.T) {
	s := New(Options{})
	x := sym.NewInput(0, "", 0, 15)
	cs := []sym.Constraint{{E: sym.Eq(sym.NewBin(sym.OpMod, sym.Mul(x, x), sym.NewConst(4)), sym.NewConst(2)), Truth: true}}
	if _, ok := s.Solve(Problem{Constraints: cs, Domains: []VarDomain{{ID: 0, Lo: 0, Hi: 15}}, Seed: sym.MapAssignment{}}); ok {
		t.Fatal("x*x % 4 is never 2")
	}
	if st := s.Stats(); st.Unsat != 1 || st.GaveUp != 0 || st.Nodes == 0 {
		t.Errorf("want a searched proof: %+v", st)
	}
}

// TestSolvePropagationOverflowIsNoProof checks that a domain emptied by
// bounds reasoning that could overflow int64 is not claimed as a proof:
// x*2^62 - 2^63 == 0 holds at x=2 under wraparound, which bounds reasoning
// over the integers cannot see.
func TestSolvePropagationOverflowIsNoProof(t *testing.T) {
	s := New(Options{})
	e := sym.Eq(sym.Add(sym.Mul(in(0), sym.NewConst(1<<62)), sym.NewConst(-1<<63)), sym.Zero)
	asn, ok := s.Solve(Problem{Constraints: []sym.Constraint{{E: e, Truth: true}}, Domains: byteDomains(1), Seed: sym.MapAssignment{}})
	if ok {
		if !sym.AllHold([]sym.Constraint{{E: e, Truth: true}}, asn) {
			t.Fatalf("wrong model %v", asn)
		}
		return
	}
	if st := s.Stats(); st.Unsat != 0 {
		t.Errorf("an overflowing linear atom must not yield a proof: %+v", st)
	}
}

func TestSolveTwoVarsLinear(t *testing.T) {
	s := New(Options{})
	// x + y == 100, x < 30.
	x, y := in(0), in(1)
	cs := []sym.Constraint{
		{E: sym.Eq(sym.Add(x, y), sym.NewConst(100)), Truth: true},
		{E: sym.Lt(x, sym.NewConst(30)), Truth: true},
	}
	asn, ok := s.Solve(Problem{Constraints: cs, Domains: byteDomains(2), Seed: sym.MapAssignment{0: 200, 1: 200}})
	if !ok {
		t.Fatal("expected sat")
	}
	if asn[0]+asn[1] != 100 || asn[0] >= 30 {
		t.Fatalf("bad solution %v", asn)
	}
}

func TestSolveNegatedConstraint(t *testing.T) {
	// The common replay pattern: prefix constraints plus one negated tail.
	s := New(Options{})
	x := in(0)
	cs := []sym.Constraint{
		{E: sym.Eq(x, sym.NewConst('a')), Truth: false}, // not 'a'
		{E: sym.Eq(x, sym.NewConst('b')), Truth: true},  // is 'b'
	}
	asn, ok := s.Solve(Problem{Constraints: cs, Domains: byteDomains(1), Seed: sym.MapAssignment{0: 'a'}})
	if !ok || asn[0] != 'b' {
		t.Fatalf("got ok=%v asn=%v", ok, asn)
	}
}

func TestSolveNonLinearFallback(t *testing.T) {
	s := New(Options{})
	// (x / 10) == 4 is non-linear for the normalizer; search must find it.
	x := in(0)
	cs := []sym.Constraint{
		{E: sym.Eq(sym.NewBin(sym.OpDiv, x, sym.NewConst(10)), sym.NewConst(4)), Truth: true},
	}
	asn, ok := s.Solve(Problem{Constraints: cs, Domains: byteDomains(1), Seed: sym.MapAssignment{0: 0}})
	if !ok {
		t.Fatal("expected sat")
	}
	if asn[0]/10 != 4 {
		t.Fatalf("got %d", asn[0])
	}
	if s.Stats().Fallbacks == 0 {
		t.Error("expected a fallback atom")
	}
}

func TestSolveBitMask(t *testing.T) {
	s := New(Options{})
	x := in(0)
	cs := []sym.Constraint{
		{E: sym.Eq(sym.NewBin(sym.OpAnd, x, sym.NewConst(0x0f)), sym.NewConst(0x05)), Truth: true},
		{E: sym.NewBin(sym.OpGe, x, sym.NewConst(0x20)), Truth: true},
	}
	asn, ok := s.Solve(Problem{Constraints: cs, Domains: byteDomains(1), Seed: sym.MapAssignment{0: 0}})
	if !ok {
		t.Fatal("expected sat")
	}
	if asn[0]&0x0f != 0x05 || asn[0] < 0x20 {
		t.Fatalf("got %#x", asn[0])
	}
}

func TestSolveManyVarsString(t *testing.T) {
	// Force a specific 8-byte string, as option parsing does.
	s := New(Options{})
	want := "mkdir -p"
	cs := make([]sym.Constraint, len(want))
	for i, ch := range []byte(want) {
		cs[i] = sym.Constraint{E: sym.Eq(in(i), sym.NewConst(int64(ch))), Truth: true}
	}
	asn, ok := s.Solve(Problem{Constraints: cs, Domains: byteDomains(len(want)), Seed: sym.MapAssignment{}})
	if !ok {
		t.Fatal("expected sat")
	}
	for i, ch := range []byte(want) {
		if asn[i] != int64(ch) {
			t.Fatalf("byte %d: got %d want %d", i, asn[i], ch)
		}
	}
}

func TestSolveChainComparisons(t *testing.T) {
	s := New(Options{})
	// 'a' <= x && x <= 'z' && x != 'q'.
	x := in(0)
	cs := []sym.Constraint{
		{E: sym.NewBin(sym.OpGe, x, sym.NewConst('a')), Truth: true},
		{E: sym.NewBin(sym.OpLe, x, sym.NewConst('z')), Truth: true},
		{E: sym.Eq(x, sym.NewConst('q')), Truth: false},
	}
	asn, ok := s.Solve(Problem{Constraints: cs, Domains: byteDomains(1), Seed: sym.MapAssignment{0: 'q'}})
	if !ok {
		t.Fatal("expected sat")
	}
	if v := asn[0]; v < 'a' || v > 'z' || v == 'q' {
		t.Fatalf("got %c", rune(v))
	}
}

func TestSolvePreservesUntouchedSeedVars(t *testing.T) {
	s := New(Options{})
	cs := []sym.Constraint{
		{E: sym.Eq(in(0), sym.NewConst(9)), Truth: true},
	}
	asn, ok := s.Solve(Problem{Constraints: cs, Domains: byteDomains(3), Seed: sym.MapAssignment{0: 1, 1: 111, 2: 222}})
	if !ok {
		t.Fatal("expected sat")
	}
	if asn[1] != 111 || asn[2] != 222 {
		t.Fatalf("untouched vars changed: %v", asn)
	}
}

func TestSolveDeterministic(t *testing.T) {
	run := func() sym.MapAssignment {
		s := New(Options{})
		cs := []sym.Constraint{
			{E: sym.NewBin(sym.OpGt, sym.Add(in(0), in(1)), sym.NewConst(100)), Truth: true},
			{E: sym.NewBin(sym.OpLt, in(0), sym.NewConst(40)), Truth: true},
		}
		asn, ok := s.Solve(Problem{Constraints: cs, Domains: byteDomains(2), Seed: sym.MapAssignment{0: 0, 1: 0}})
		if !ok {
			t.Fatal("expected sat")
		}
		return asn
	}
	a, b := run(), run()
	if a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestSolveIntDomainNegative(t *testing.T) {
	// read() return value domain is [-1, n].
	s := New(Options{})
	x := sym.NewInput(0, "ret", -1, 64)
	cs := []sym.Constraint{
		{E: sym.NewBin(sym.OpLt, x, sym.NewConst(0)), Truth: true},
	}
	asn, ok := s.Solve(Problem{
		Constraints: cs,
		Domains:     []VarDomain{{ID: 0, Lo: -1, Hi: 64}},
		Seed:        sym.MapAssignment{0: 64},
	})
	if !ok || asn[0] != -1 {
		t.Fatalf("got ok=%v asn=%v", ok, asn)
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := New(Options{})
	p := Problem{
		Constraints: []sym.Constraint{{E: sym.Eq(in(0), sym.NewConst(5)), Truth: true}},
		Domains:     byteDomains(1),
		Seed:        sym.MapAssignment{},
	}
	s.Solve(p)
	s.Solve(p)
	if got := s.Stats().Calls; got != 2 {
		t.Fatalf("calls=%d", got)
	}
	s.ResetStats()
	if got := s.Stats().Calls; got != 0 {
		t.Fatalf("after reset calls=%d", got)
	}

	a := Stats{Calls: 3, Sat: 1, Unsat: 1, GaveUp: 1, Nodes: 5, Work: 70, Atoms: 4, Fallbacks: 2}
	b := Stats{Calls: 2, Sat: 1, Unsat: 0, GaveUp: 1, Nodes: 1, Work: 30, Atoms: 2, Fallbacks: 1}
	a.Add(b)
	want := Stats{Calls: 5, Sat: 2, Unsat: 1, GaveUp: 2, Nodes: 6, Work: 100, Atoms: 6, Fallbacks: 3}
	if a != want {
		t.Fatalf("Add: got %+v, want %+v", a, want)
	}
}

// TestQuickSolveSatisfiesIntervals property-checks that whenever the solver
// reports sat for a random interval conjunction, the assignment satisfies it,
// and whenever the conjunction is trivially satisfiable the solver finds it.
func TestQuickSolveSatisfiesIntervals(t *testing.T) {
	f := func(loA, hiA, loB, hiB uint8) bool {
		lo0, hi0 := int64(loA), int64(hiA)
		if lo0 > hi0 {
			lo0, hi0 = hi0, lo0
		}
		lo1, hi1 := int64(loB), int64(hiB)
		if lo1 > hi1 {
			lo1, hi1 = hi1, lo1
		}
		s := New(Options{})
		cs := []sym.Constraint{
			{E: sym.NewBin(sym.OpGe, in(0), sym.NewConst(lo0)), Truth: true},
			{E: sym.NewBin(sym.OpLe, in(0), sym.NewConst(hi0)), Truth: true},
			{E: sym.NewBin(sym.OpGe, in(1), sym.NewConst(lo1)), Truth: true},
			{E: sym.NewBin(sym.OpLe, in(1), sym.NewConst(hi1)), Truth: true},
		}
		asn, ok := s.Solve(Problem{Constraints: cs, Domains: byteDomains(2), Seed: sym.MapAssignment{}})
		if !ok {
			return false // always satisfiable by construction
		}
		return asn[0] >= lo0 && asn[0] <= hi0 && asn[1] >= lo1 && asn[1] <= hi1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickSolveEqualitySum property-checks solving x+y == target.
func TestQuickSolveEqualitySum(t *testing.T) {
	f := func(target uint16) bool {
		tgt := int64(target % 511) // reachable by two bytes
		s := New(Options{})
		cs := []sym.Constraint{
			{E: sym.Eq(sym.Add(in(0), in(1)), sym.NewConst(tgt)), Truth: true},
		}
		asn, ok := s.Solve(Problem{Constraints: cs, Domains: byteDomains(2), Seed: sym.MapAssignment{}})
		if !ok {
			return false
		}
		return asn[0]+asn[1] == tgt
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropagationPrunesBeforeSearch(t *testing.T) {
	s := New(Options{MaxNodes: 50})
	// A tight equality chain over 4 vars that propagation alone almost
	// solves; with a tiny node budget the search still succeeds.
	cs := []sym.Constraint{
		{E: sym.Eq(in(0), sym.NewConst(17)), Truth: true},
		{E: sym.Eq(in(1), in(0)), Truth: true},
		{E: sym.Eq(in(2), sym.Add(in(1), sym.NewConst(1))), Truth: true},
		{E: sym.Eq(in(3), sym.Add(in(2), sym.NewConst(1))), Truth: true},
	}
	asn, ok := s.Solve(Problem{Constraints: cs, Domains: byteDomains(4), Seed: sym.MapAssignment{}})
	if !ok {
		t.Fatal("expected sat within tiny budget")
	}
	want := []int64{17, 17, 18, 19}
	for i, w := range want {
		if asn[i] != w {
			t.Fatalf("var %d: got %d want %d", i, asn[i], w)
		}
	}
}

func TestRelString(t *testing.T) {
	names := map[rel]string{relEQ: "==", relNE: "!=", relLT: "<", relLE: "<=", relGT: ">", relGE: ">="}
	for r, want := range names {
		if r.String() != want {
			t.Errorf("rel %d: got %q", r, r.String())
		}
	}
}
