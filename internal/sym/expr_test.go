package sym

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestConstFolding(t *testing.T) {
	cases := []struct {
		name string
		e    Expr
		want int64
	}{
		{"add", NewBin(OpAdd, NewConst(2), NewConst(3)), 5},
		{"sub", NewBin(OpSub, NewConst(2), NewConst(3)), -1},
		{"mul", NewBin(OpMul, NewConst(4), NewConst(3)), 12},
		{"div", NewBin(OpDiv, NewConst(7), NewConst(2)), 3},
		{"divneg", NewBin(OpDiv, NewConst(-7), NewConst(2)), -3},
		{"mod", NewBin(OpMod, NewConst(7), NewConst(3)), 1},
		{"modneg", NewBin(OpMod, NewConst(-7), NewConst(3)), -1},
		{"eq", NewBin(OpEq, NewConst(3), NewConst(3)), 1},
		{"ne", NewBin(OpNe, NewConst(3), NewConst(3)), 0},
		{"lt", NewBin(OpLt, NewConst(2), NewConst(3)), 1},
		{"le", NewBin(OpLe, NewConst(3), NewConst(3)), 1},
		{"gt", NewBin(OpGt, NewConst(3), NewConst(3)), 0},
		{"ge", NewBin(OpGe, NewConst(3), NewConst(2)), 1},
		{"and", NewBin(OpAnd, NewConst(0b1100), NewConst(0b1010)), 0b1000},
		{"or", NewBin(OpOr, NewConst(0b1100), NewConst(0b1010)), 0b1110},
		{"xor", NewBin(OpXor, NewConst(0b1100), NewConst(0b1010)), 0b0110},
		{"shl", NewBin(OpShl, NewConst(1), NewConst(4)), 16},
		{"shr", NewBin(OpShr, NewConst(16), NewConst(4)), 1},
		{"neg", NewUn(OpNeg, NewConst(5)), -5},
		{"bnot", NewUn(OpBNot, NewConst(0)), -1},
		{"not0", NewUn(OpNot, NewConst(0)), 1},
		{"not1", NewUn(OpNot, NewConst(42)), 0},
		{"bool", NewUn(OpBool, NewConst(42)), 1},
	}
	for _, tc := range cases {
		c, ok := tc.e.(*Const)
		if !ok {
			t.Errorf("%s: expected constant folding, got %T", tc.name, tc.e)
			continue
		}
		if c.V != tc.want {
			t.Errorf("%s: got %d, want %d", tc.name, c.V, tc.want)
		}
	}
}

func TestPeepholes(t *testing.T) {
	x := NewInput(0, "x", 0, 255)

	if got := NewBin(OpAdd, x, Zero); got != Expr(x) {
		t.Errorf("x+0: got %v", Format(got))
	}
	if got := NewBin(OpAdd, Zero, x); got != Expr(x) {
		t.Errorf("0+x: got %v", Format(got))
	}
	if got := NewBin(OpMul, x, Zero); got != Expr(Zero) {
		t.Errorf("x*0: got %v", Format(got))
	}
	if got := NewBin(OpMul, One, x); got != Expr(x) {
		t.Errorf("1*x: got %v", Format(got))
	}
	if got := NewBin(OpSub, x, Zero); got != Expr(x) {
		t.Errorf("x-0: got %v", Format(got))
	}
	if got := NewUn(OpNeg, NewUn(OpNeg, x)); got != Expr(x) {
		t.Errorf("-(-x): got %v", Format(got))
	}
	if got := NewUn(OpBNot, NewUn(OpBNot, x)); got != Expr(x) {
		t.Errorf("^^x: got %v", Format(got))
	}

	// !(x < 5) becomes x >= 5.
	e := NewUn(OpNot, NewBin(OpLt, x, NewConst(5)))
	b, ok := e.(*Bin)
	if !ok || b.Op != OpGe {
		t.Errorf("!(x<5): got %v", Format(e))
	}

	// bool(x == 3) is idempotent.
	cmp := NewBin(OpEq, x, NewConst(3))
	if got := NewUn(OpBool, cmp); got != cmp {
		t.Errorf("bool(cmp): got %v", Format(got))
	}

	// (x == 3) == 0 becomes x != 3.
	e = NewBin(OpEq, cmp, Zero)
	b, ok = e.(*Bin)
	if !ok || b.Op != OpNe {
		t.Errorf("(x==3)==0: got %v", Format(e))
	}
	// (x == 3) == 1 stays boolean-valued and equivalent.
	e = NewBin(OpEq, cmp, One)
	for _, v := range []int64{0, 3, 7} {
		asn := MapAssignment{0: v}
		if e.Eval(asn) != cmp.Eval(asn) {
			t.Errorf("(x==3)==1 under x=%d: %d vs %d", v, e.Eval(asn), cmp.Eval(asn))
		}
	}
}

func TestEvalWithAssignment(t *testing.T) {
	x := NewInput(1, "x", 0, 255)
	y := NewInput(2, "y", 0, 255)
	e := NewBin(OpAdd, NewBin(OpMul, x, NewConst(10)), y)
	got := e.Eval(MapAssignment{1: 4, 2: 2})
	if got != 42 {
		t.Fatalf("10x+y: got %d, want 42", got)
	}
}

func TestVars(t *testing.T) {
	x := NewInput(1, "x", 0, 255)
	y := NewInput(9, "y", 0, 255)
	e := NewBin(OpAdd, NewBin(OpMul, x, y), x)
	// Every occurrence, duplicates kept, appended after buf's contents.
	got := AppendVarIDs(e, []int{42})
	if want := []int{42, 1, 9, 1}; !slices.Equal(got, want) {
		t.Fatalf("AppendVarIDs: got %v, want %v", got, want)
	}
	if got := AppendVarIDs(NewConst(7), nil); len(got) != 0 {
		t.Errorf("constant has variables: %v", got)
	}
}

func TestConstraint(t *testing.T) {
	x := NewInput(0, "x", 0, 255)
	c := Constraint{E: NewBin(OpLt, x, NewConst(10)), Truth: true}
	if !c.Holds(MapAssignment{0: 5}) {
		t.Error("x<10 should hold for x=5")
	}
	if c.Holds(MapAssignment{0: 15}) {
		t.Error("x<10 should not hold for x=15")
	}
	n := c.Negated()
	if n.Holds(MapAssignment{0: 5}) {
		t.Error("negated should not hold for x=5")
	}
	if !n.Holds(MapAssignment{0: 15}) {
		t.Error("negated should hold for x=15")
	}
	if n.Negated().Truth != c.Truth {
		t.Error("double negation should restore truth")
	}
}

func TestAllHold(t *testing.T) {
	x := NewInput(0, "x", 0, 255)
	cs := []Constraint{
		{E: NewBin(OpGe, x, NewConst(3)), Truth: true},
		{E: NewBin(OpLe, x, NewConst(7)), Truth: true},
	}
	if !AllHold(cs, MapAssignment{0: 5}) {
		t.Error("3<=x<=7 should hold for 5")
	}
	if AllHold(cs, MapAssignment{0: 9}) {
		t.Error("3<=x<=7 should fail for 9")
	}
}

func TestFormat(t *testing.T) {
	x := NewInput(0, "x", 0, 255)
	e := NewBin(OpAdd, x, NewConst(1))
	if got := Format(e); got != "(x + 1)" {
		t.Errorf("format: got %q", got)
	}
	anon := NewInput(7, "", 0, 255)
	if got := Format(anon); got != "in7" {
		t.Errorf("anon format: got %q", got)
	}
	c := Constraint{E: e, Truth: false}
	if got := c.String(); got != "!((x + 1))" {
		t.Errorf("constraint format: got %q", got)
	}
}

func TestSize(t *testing.T) {
	x := NewInput(0, "x", 0, 255)
	e := NewBin(OpAdd, x, NewConst(1)) // 3 nodes
	if Size(e) != 3 {
		t.Errorf("size: got %d, want 3", Size(e))
	}
	e2 := NewUn(OpNeg, e)
	if Size(e2) != 4 {
		t.Errorf("size: got %d, want 4", Size(e2))
	}
	if TooLarge(e2) {
		t.Error("small expr flagged too large")
	}
}

// TestQuickFoldMatchesEval checks, property-based, that building an
// expression from two constants always equals direct evaluation, for every
// binary operator.
func TestQuickFoldMatchesEval(t *testing.T) {
	ops := []Op{OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor,
		OpShl, OpShr, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	f := func(a, b int32, opIdx uint8) bool {
		op := ops[int(opIdx)%len(ops)]
		l, r := int64(a), int64(b)
		e := NewBin(op, NewConst(l), NewConst(r))
		c, ok := e.(*Const)
		return ok && c.V == evalBin(op, l, r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickNotIsInvolution checks that logical negation of a comparison
// always evaluates to the complement.
func TestQuickNotIsInvolution(t *testing.T) {
	x := NewInput(0, "x", 0, 255)
	cmps := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	f := func(v uint8, k int16, opIdx uint8) bool {
		op := cmps[int(opIdx)%len(cmps)]
		e := NewBin(op, x, NewConst(int64(k)))
		n := NewUn(OpNot, e)
		asn := MapAssignment{0: int64(v)}
		return n.Eval(asn) == 1-e.Eval(asn)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickPeepholePreservesValue builds random small expressions and checks
// that the simplified construction evaluates identically to the raw
// operator semantics.
func TestQuickPeepholePreservesValue(t *testing.T) {
	x := NewInput(0, "x", 0, 255)
	y := NewInput(1, "y", 0, 255)
	ops := []Op{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpEq, OpNe, OpLt, OpGe}
	f := func(vx, vy uint8, k int8, op1, op2 uint8) bool {
		o1 := ops[int(op1)%len(ops)]
		o2 := ops[int(op2)%len(ops)]
		e := NewBin(o2, NewBin(o1, x, NewConst(int64(k))), y)
		asn := MapAssignment{0: int64(vx), 1: int64(vy)}
		inner := evalBin(o1, int64(vx), int64(k))
		want := evalBin(o2, inner, int64(vy))
		return e.Eval(asn) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInputDomainNormalization(t *testing.T) {
	in := NewInput(0, "x", 255, 0)
	if in.Lo != 0 || in.Hi != 255 {
		t.Errorf("domain not normalized: [%d,%d]", in.Lo, in.Hi)
	}
}

func TestConstraintVars(t *testing.T) {
	x := NewInput(3, "x", 0, 255)
	y := NewInput(5, "y", 0, 255)
	cs := []Constraint{
		{E: Eq(y, NewConst(1)), Truth: true},
		{E: Lt(NewBin(OpAdd, x, y), NewConst(9)), Truth: false},
	}
	// Sorted and duplicate-free, reusing buf's storage.
	buf := make([]int, 1, 8)
	got := ConstraintVarIDs(cs, buf)
	if want := []int{3, 5}; !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if &got[0] != &buf[0] {
		t.Error("ConstraintVarIDs did not reuse buf")
	}
}
