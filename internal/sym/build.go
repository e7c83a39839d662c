package sym

import (
	"math"
	"sort"
)

// Constructors with eager constant folding and a small set of algebraic
// peephole simplifications. The simplifications are deliberately conservative
// (they never change the value of an expression under any assignment) and are
// restricted to patterns that actually occur in compiled MiniC programs:
// additions of zero, multiplications by zero/one, double negation, and
// comparison canonicalization.

// maxExprSize caps expression growth. When an expression would exceed the
// cap, the engine concretizes it instead (the caller handles that); the cap
// exists so pathological programs (e.g. diff's LCS inner loop) cannot build
// gigabyte-sized constraint trees.
const maxExprSize = 1 << 14

// NewUn builds a unary expression, folding constants.
func NewUn(op Op, x Expr) Expr {
	if v, ok := IsConst(x); ok {
		return NewConst(evalUn(op, v))
	}
	switch op {
	case OpNot:
		// !(!e) over a comparison folds to bool(e) == e for comparisons.
		if u, ok := x.(*Un); ok && u.Op == OpNot {
			return NewUn(OpBool, u.X)
		}
		// !(a cmp b) flips the comparison, keeping constraints shallow.
		if b, ok := x.(*Bin); ok {
			if neg, ok := negatedCmp(b.Op); ok {
				return NewBin(neg, b.L, b.R)
			}
		}
	case OpBool:
		if isBoolValued(x) {
			return x
		}
	case OpNeg:
		if u, ok := x.(*Un); ok && u.Op == OpNeg {
			return u.X
		}
	case OpBNot:
		if u, ok := x.(*Un); ok && u.Op == OpBNot {
			return u.X
		}
	}
	return &Un{Op: op, X: x, h: mix(uint64(op), uint64(x.hash())), sz: nodes(x.size() + 1)}
}

// NewBin builds a binary expression, folding constants.
func NewBin(op Op, l, r Expr) Expr {
	lv, lc := IsConst(l)
	rv, rc := IsConst(r)
	if lc && rc {
		return NewConst(evalBin(op, lv, rv))
	}
	switch op {
	case OpAdd:
		if lc && lv == 0 {
			return r
		}
		if rc && rv == 0 {
			return l
		}
	case OpSub:
		if rc && rv == 0 {
			return l
		}
	case OpMul:
		if lc && lv == 0 || rc && rv == 0 {
			return Zero
		}
		if lc && lv == 1 {
			return r
		}
		if rc && rv == 1 {
			return l
		}
	case OpDiv:
		if rc && rv == 1 {
			return l
		}
	case OpAnd:
		if lc && lv == 0 || rc && rv == 0 {
			return Zero
		}
	case OpOr, OpXor:
		if lc && lv == 0 {
			return r
		}
		if rc && rv == 0 {
			return l
		}
	case OpShl, OpShr:
		if rc && rv == 0 {
			return l
		}
	case OpEq:
		// bool(e) == 0  =>  !e ; bool(e) == 1 => bool(e)
		if x, ok := boolValuedOperand(l); ok && rc {
			switch rv {
			case 0:
				return NewUn(OpNot, x)
			case 1:
				return NewUn(OpBool, x)
			}
		}
		if x, ok := boolValuedOperand(r); ok && lc {
			switch lv {
			case 0:
				return NewUn(OpNot, x)
			case 1:
				return NewUn(OpBool, x)
			}
		}
	case OpNe:
		if x, ok := boolValuedOperand(l); ok && rc && rv == 0 {
			return NewUn(OpBool, x)
		}
		if x, ok := boolValuedOperand(r); ok && lc && lv == 0 {
			return NewUn(OpBool, x)
		}
	}
	h := mix(uint64(op), uint64(l.hash())<<32|uint64(r.hash()))
	return &Bin{Op: op, L: l, R: r, h: h, sz: nodes(l.size() + r.size() + 1)}
}

// nodes stores a node count, saturating: only TooLarge compares sizes past
// maxExprSize.
func nodes(n int) int32 { return int32(min(n, math.MaxInt32)) }

// TooLarge reports whether e exceeds the engine's expression-size cap.
func TooLarge(e Expr) bool { return e.size() > maxExprSize }

// boolValuedOperand unwraps e when it is known to evaluate to 0 or 1,
// returning the underlying expression whose truth it represents.
func boolValuedOperand(e Expr) (Expr, bool) {
	switch x := e.(type) {
	case *Un:
		if x.Op == OpBool {
			return x.X, true
		}
		if x.Op == OpNot {
			return e, true
		}
	case *Bin:
		if x.Op.IsComparison() {
			return e, true
		}
	}
	return nil, false
}

func isBoolValued(e Expr) bool {
	switch x := e.(type) {
	case *Un:
		return x.Op == OpNot || x.Op == OpBool
	case *Bin:
		return x.Op.IsComparison()
	case *Const:
		return x.V == 0 || x.V == 1
	}
	return false
}

func negatedCmp(op Op) (Op, bool) {
	switch op {
	case OpEq:
		return OpNe, true
	case OpNe:
		return OpEq, true
	case OpLt:
		return OpGe, true
	case OpLe:
		return OpGt, true
	case OpGt:
		return OpLe, true
	case OpGe:
		return OpLt, true
	}
	return OpInvalid, false
}

// Convenience constructors used throughout the engine.

// Add returns l + r.
func Add(l, r Expr) Expr { return NewBin(OpAdd, l, r) }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return NewBin(OpSub, l, r) }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return NewBin(OpMul, l, r) }

// Eq returns l == r as a 0/1 expression.
func Eq(l, r Expr) Expr { return NewBin(OpEq, l, r) }

// Ne returns l != r as a 0/1 expression.
func Ne(l, r Expr) Expr { return NewBin(OpNe, l, r) }

// Lt returns l < r as a 0/1 expression.
func Lt(l, r Expr) Expr { return NewBin(OpLt, l, r) }

// Le returns l <= r as a 0/1 expression.
func Le(l, r Expr) Expr { return NewBin(OpLe, l, r) }

// Not returns the logical negation of e as a 0/1 expression.
func Not(e Expr) Expr { return NewUn(OpNot, e) }

// Bool coerces e to 0/1.
func Bool(e Expr) Expr { return NewUn(OpBool, e) }

// Constraint asserts the truth or falsity of an expression: when Truth is
// true the constraint is e != 0, otherwise e == 0. A slice of constraints is
// a conjunction and describes a path condition.
type Constraint struct {
	E     Expr
	Truth bool
}

// Negated returns the constraint with its truth flipped.
func (c Constraint) Negated() Constraint { return Constraint{E: c.E, Truth: !c.Truth} }

// Holds reports whether the constraint is satisfied under asn.
func (c Constraint) Holds(asn Assignment) bool {
	return (c.E.Eval(asn) != 0) == c.Truth
}

// String implements fmt.Stringer.
func (c Constraint) String() string {
	if c.Truth {
		return Format(c.E)
	}
	return "!(" + Format(c.E) + ")"
}

// AllHold reports whether every constraint in the conjunction holds.
func AllHold(cs []Constraint, asn Assignment) bool {
	for _, c := range cs {
		if !c.Holds(asn) {
			return false
		}
	}
	return true
}

// ConstraintVarIDs returns the sorted, duplicate-free input-variable IDs
// mentioned by cs, reusing buf's storage.
func ConstraintVarIDs(cs []Constraint, buf []int) []int {
	buf = buf[:0]
	for _, c := range cs {
		buf = c.E.appendVarIDs(buf)
	}
	sort.Ints(buf)
	out := buf[:0]
	for i, v := range buf {
		if i == 0 || v != buf[i-1] {
			out = append(out, v)
		}
	}
	return out
}
