package solver

import (
	"fmt"
	"testing"

	"pathlog/internal/sym"
)

// diffLine returns the input bytes of one diff line: n bytes of a file,
// numbered from id.
func diffLine(file string, id, n int) []sym.Expr {
	out := make([]sym.Expr, n)
	for k := range out {
		out[k] = sym.NewInput(id+k, fmt.Sprintf("file:%s:%d", file, k), 0, 255)
	}
	return out
}

// diffHash is diff's hash_line over one line, as the concolic engine builds
// it: h = (h*31 + c) % 16777216 from h = 5381, folded to 166811 + c0.
func diffHash(line []sym.Expr) sym.Expr {
	h := sym.NewBin(sym.OpMod, sym.Add(sym.NewConst(166811), line[0]), sym.NewConst(16777216))
	for _, c := range line[1:] {
		h = sym.NewBin(sym.OpMod, sym.Add(sym.Mul(h, sym.NewConst(31)), c), sym.NewConst(16777216))
	}
	return h
}

// diffGiveUp is the child problem diff's pre-deployment analysis used to
// give up on: the path compared two 7-byte lines byte for byte and found
// them equal, and the negated branch asks for their hash buckets
// (hash & 1) to differ. 64 constraints over 14 variables.
func diffGiveUp() Problem {
	a, b := diffLine("a.txt", 23, 7), diffLine("b.txt", 55, 7)
	var cs []sym.Constraint
	add := func(e sym.Expr, truth bool) { cs = append(cs, sym.Constraint{E: e, Truth: truth}) }
	for _, line := range [][]sym.Expr{a, b} {
		for _, c := range line {
			add(sym.Eq(c, sym.Zero), false) // not the string terminator
		}
	}
	for _, line := range [][]sym.Expr{a, b} {
		for _, c := range line {
			add(sym.NewBin(sym.OpGt, c, sym.Zero), true) // looks_binary
			add(sym.Lt(c, sym.NewConst(9)), false)
		}
	}
	for _, line := range [][]sym.Expr{a, b} {
		for _, c := range line {
			add(sym.Eq(c, sym.NewConst('\n')), false) // not a line end
		}
	}
	for k := range a {
		add(sym.Ne(a[k], b[k]), false) // lines_equal: byte k agrees
	}
	bucket := func(line []sym.Expr) sym.Expr { return sym.NewBin(sym.OpAnd, diffHash(line), sym.NewConst(1)) }
	add(sym.Eq(bucket(a), bucket(b)), false) // negated: buckets differ
	var doms []VarDomain
	for _, line := range [][]sym.Expr{a, b} {
		for _, c := range line {
			doms = append(doms, VarDomain{ID: c.(*sym.Input).ID, Lo: 0, Hi: 255})
		}
	}
	return Problem{Constraints: cs, Domains: doms, Seed: sym.MapAssignment{}}
}

// TestUnifyProvesDiffGiveUp pins the case that motivated the unification
// step: search spent the whole work budget on it and gave up; unification
// proves it unsat without a search node.
func TestUnifyProvesDiffGiveUp(t *testing.T) {
	p := diffGiveUp()
	if len(p.Constraints) != 64 || len(p.Domains) != 14 {
		t.Fatalf("fixture drifted: %d constraints, %d variables", len(p.Constraints), len(p.Domains))
	}
	s := New(Options{})
	if _, ok := s.Solve(p); ok {
		t.Fatal("equal lines cannot hash to different buckets")
	}
	st := s.Stats()
	if st.Unsat != 1 || st.GaveUp != 0 || st.Nodes != 0 {
		t.Fatalf("want a proof without search, got %+v", st)
	}
	if st.Work > 300 {
		t.Errorf("proof cost %d work units, want a few hundred at most", st.Work)
	}
}

// TestUnifyRelations covers the relations the step refutes and the ones it
// must leave alone.
func TestUnifyRelations(t *testing.T) {
	x, y, z := in(0), in(1), in(2)
	xy := sym.Constraint{E: sym.Eq(x, y), Truth: true}
	cases := []struct {
		name   string
		cs     []sym.Constraint
		proved bool
	}{
		{"ne", []sym.Constraint{xy, {E: sym.Ne(sym.Mul(x, x), sym.Mul(y, y)), Truth: true}}, true},
		{"lt", []sym.Constraint{xy, {E: sym.Lt(sym.NewBin(sym.OpXor, x, sym.NewConst(5)), sym.NewBin(sym.OpXor, y, sym.NewConst(5))), Truth: true}}, true},
		{"not-le", []sym.Constraint{xy, {E: sym.Le(sym.NewBin(sym.OpAnd, x, z), sym.NewBin(sym.OpAnd, y, z)), Truth: false}}, true},
		{"negated-ne", []sym.Constraint{{E: sym.Ne(y, x), Truth: false}, {E: sym.Eq(sym.NewBin(sym.OpMod, x, z), sym.NewBin(sym.OpMod, y, z)), Truth: false}}, true},
		{"transitive", []sym.Constraint{xy, {E: sym.Eq(y, z), Truth: true}, {E: sym.Ne(sym.Mul(x, y), sym.Mul(z, z)), Truth: true}}, true},
		{"le-holds", []sym.Constraint{xy, {E: sym.Le(sym.Mul(x, x), sym.Mul(y, y)), Truth: true}}, false},
		{"other-var", []sym.Constraint{xy, {E: sym.Ne(sym.Mul(x, x), sym.Mul(z, z)), Truth: true}}, false},
		{"scaled-eq", []sym.Constraint{{E: sym.Eq(sym.Mul(x, sym.NewConst(2)), sym.Mul(y, sym.NewConst(2))), Truth: true}, {E: sym.Ne(sym.Mul(x, x), sym.Mul(y, y)), Truth: true}}, false},
		{"offset-eq", []sym.Constraint{{E: sym.Eq(x, sym.Add(y, sym.NewConst(1))), Truth: true}, {E: sym.Ne(sym.Mul(x, x), sym.Mul(y, y)), Truth: true}}, false},
	}
	for _, tc := range cases {
		var u unifier
		s := New(Options{})
		nes := make([]*normEntry, len(tc.cs))
		for i, c := range tc.cs {
			nes[i] = s.normalized(c)
		}
		if _, proved := u.provesUnsat(tc.cs, nes); proved != tc.proved {
			t.Errorf("%s: proved=%v, want %v", tc.name, proved, tc.proved)
		}
	}
}

// TestUnifyAllocatesNothing checks the step's steady state: no allocation
// on a call without variable equalities, nor (once the memo exists) on one
// with them.
func TestUnifyAllocatesNothing(t *testing.T) {
	s := New(Options{})
	noEq := []sym.Constraint{
		{E: sym.Lt(in(0), sym.NewConst(100)), Truth: true},
		{E: sym.Ne(sym.Mul(in(0), in(1)), sym.NewConst(7)), Truth: true},
	}
	p := diffGiveUp()
	for _, cs := range [][]sym.Constraint{noEq, p.Constraints} {
		nes := make([]*normEntry, len(cs))
		for i, c := range cs {
			nes[i] = s.normalized(c)
		}
		if n := testing.AllocsPerRun(20, func() { s.uni.provesUnsat(cs, nes) }); n != 0 {
			t.Errorf("%d constraints: %.1f allocations per call", len(cs), n)
		}
	}
}

// TestUnifyCollisionIsNoProof forges a hash collision between two sides that
// differ and checks the structural confirmation refuses the proof.
func TestUnifyCollisionIsNoProof(t *testing.T) {
	s := New(Options{})
	l, r := sym.Mul(in(0), in(1)), sym.Mul(in(0), in(2))
	cs := []sym.Constraint{
		{E: sym.Eq(in(3), in(4)), Truth: true}, // gets past the early exit
		{E: sym.Ne(l, r), Truth: true},
	}
	nes := []*normEntry{s.normalized(cs[0]), s.normalized(cs[1])}
	u := &s.uni
	u.beginCall()
	if u.hash(l) == u.hash(r) {
		t.Fatal("distinct sides should hash apart without a forged collision")
	}
	// Plant the colliding hashes for the next call's epoch.
	for i := range u.memo {
		if e := u.memo[i].e; e == l || e == r {
			u.memo[i].h, u.memo[i].epoch = 42, u.epoch+1
		}
	}
	if _, proved := u.provesUnsat(cs, nes); proved {
		t.Error("a hash collision between different sides was taken as a proof")
	}
	if u.hash(l) != u.hash(r) {
		t.Fatal("the forged collision did not take effect")
	}
}

// TestUnifyWorkIsAFunctionOfTheProblem proves diff's give-up problem with
// memos of 2, 1024 and 65536 slots: the work charged must not depend on
// how the memo's slots fall, so it is the same for all three.
func TestUnifyWorkIsAFunctionOfTheProblem(t *testing.T) {
	p := diffGiveUp()
	var works []int64
	for _, bits := range []uint{1, uniTabBits, 16} {
		s := New(Options{})
		nes := make([]*normEntry, len(p.Constraints))
		for i, c := range p.Constraints {
			nes[i] = s.normalized(c)
		}
		u := &s.uni
		u.memo, u.shift = make([]uniSlot, 1<<bits), 64-bits
		work, proved := u.provesUnsat(p.Constraints, nes)
		if !proved {
			t.Fatalf("%d-slot memo: no proof", 1<<bits)
		}
		works = append(works, work)
	}
	if works[0] != works[1] || works[1] != works[2] {
		t.Fatalf("work by memo size 2/1024/65536: %v", works)
	}
}
