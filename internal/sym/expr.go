// Package sym implements the symbolic expression language used by the
// concolic execution engine, the replay engine and the constraint solver.
//
// Expressions form an immutable DAG over 64-bit integers with C-like
// semantics: comparisons yield 0 or 1, division truncates toward zero, and
// shifts take the low six bits of the shift count. Each expression is either
// a constant, a symbolic input (one byte or integer of program input), or an
// operator applied to sub-expressions. Constructors constant-fold eagerly so
// that expressions over concrete values collapse back to constants; this is
// what keeps concolic execution cheap on the mostly-concrete parts of a run.
package sym

import (
	"fmt"
	"strconv"
	"strings"
)

// Op identifies an operator in a symbolic expression.
type Op int

// Binary and unary operators. The numeric values are stable and are used in
// trace encoding, so new operators must be appended.
const (
	OpInvalid Op = iota

	// Arithmetic.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod

	// Bitwise.
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr

	// Comparisons; result is 0 or 1.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	// Unary.
	OpNeg  // arithmetic negation
	OpBNot // bitwise complement
	OpNot  // logical not: x==0 -> 1, else 0

	// Bool coerces a value to 0/1 (x != 0). Used when a value is placed in
	// a boolean context so that path constraints stay canonical.
	OpBool
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpAnd: "&", OpOr: "|", OpXor: "^", OpShl: "<<", OpShr: ">>",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpNeg: "neg", OpBNot: "~", OpNot: "!", OpBool: "bool",
}

// String returns the surface syntax of the operator.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsComparison reports whether the operator always yields 0 or 1.
func (o Op) IsComparison() bool {
	switch o {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpNot, OpBool:
		return true
	}
	return false
}

// Expr is a node in the symbolic expression DAG. Implementations are *Const,
// *Input, *Un and *Bin. Expressions are immutable after construction.
type Expr interface {
	// Eval computes the concrete value of the expression under the given
	// assignment of input variables.
	Eval(asn Assignment) int64
	// appendVarIDs appends every input-variable occurrence to buf.
	appendVarIDs(buf []int) []int
	// write renders the expression into sb.
	write(sb *strings.Builder)
	// size returns the number of nodes of the expression tree.
	size() int
}

// Assignment maps symbolic input variable IDs to concrete values.
type Assignment interface {
	// Value returns the concrete value bound to the input variable.
	Value(id int) int64
}

// MapAssignment is an Assignment backed by a map; missing IDs read as zero.
type MapAssignment map[int]int64

// Value implements Assignment.
func (m MapAssignment) Value(id int) int64 { return m[id] }

// Overlay returns a new assignment holding m's values with over's layered
// on top: a child input is its parent's with the solved values replaced.
func (m MapAssignment) Overlay(over MapAssignment) MapAssignment {
	out := make(MapAssignment, len(m)+len(over))
	for id, v := range m {
		out[id] = v
	}
	for id, v := range over {
		out[id] = v
	}
	return out
}

// Const is a concrete 64-bit constant.
type Const struct {
	V int64
}

// NewConst returns a constant expression. Small constants are interned.
func NewConst(v int64) *Const {
	if v >= 0 && v < int64(len(smallConsts)) {
		return &smallConsts[v]
	}
	return &Const{V: v}
}

var smallConsts = func() [257]Const {
	var a [257]Const
	for i := range a {
		a[i].V = int64(i)
	}
	return a
}()

// Zero and One are the canonical boolean constants.
var (
	Zero = NewConst(0)
	One  = NewConst(1)
)

// Eval implements Expr.
func (c *Const) Eval(Assignment) int64 { return c.V }

func (c *Const) appendVarIDs(buf []int) []int { return buf }

func (c *Const) write(sb *strings.Builder) { fmt.Fprintf(sb, "%d", c.V) }

func (c *Const) size() int { return 1 }

// String implements fmt.Stringer.
func (c *Const) String() string { return fmt.Sprintf("%d", c.V) }

// Input is a symbolic input variable: one byte or integer of program input.
// Lo and Hi bound its domain (inclusive); the solver relies on these bounds
// being tight for byte-granularity inputs.
type Input struct {
	ID   int
	Name string
	Lo   int64
	Hi   int64
	// A byte variable (ByteInput) is byte off of the stream Name. It prints
	// as Name:off, a string built only when the expression is rendered, so
	// a run that marks thousands of input bytes formats none of them.
	off    int64
	isByte bool
}

// NewInput returns a fresh input variable expression with the given domain.
func NewInput(id int, name string, lo, hi int64) *Input {
	if lo > hi {
		lo, hi = hi, lo
	}
	return &Input{ID: id, Name: name, Lo: lo, Hi: hi}
}

// ByteInput returns, by value, the input variable of byte off of a named
// stream, printed as stream:off. Returning a value lets a caller place many
// variables in one backing array.
func ByteInput(id int, stream string, off, lo, hi int64) Input {
	if lo > hi {
		lo, hi = hi, lo
	}
	return Input{ID: id, Name: stream, Lo: lo, Hi: hi, off: off, isByte: true}
}

// ByteOffset returns the offset of a byte variable (ByteInput) in its
// stream, Name, and false for any other variable.
func (in *Input) ByteOffset() (int64, bool) { return in.off, in.isByte }

// Eval implements Expr.
func (in *Input) Eval(asn Assignment) int64 {
	if asn == nil {
		return 0
	}
	return asn.Value(in.ID)
}

func (in *Input) appendVarIDs(buf []int) []int { return append(buf, in.ID) }

func (in *Input) write(sb *strings.Builder) {
	switch {
	case in.isByte:
		sb.WriteString(in.Name)
		var buf [21]byte
		sb.Write(strconv.AppendInt(append(buf[:0], ':'), in.off, 10))
	case in.Name != "":
		sb.WriteString(in.Name)
	default:
		fmt.Fprintf(sb, "in%d", in.ID)
	}
}

func (in *Input) size() int { return 1 }

// String implements fmt.Stringer.
func (in *Input) String() string { return Format(in) }

// Un is a unary operator applied to a sub-expression.
type Un struct {
	Op Op
	X  Expr
	sz int
}

// Eval implements Expr.
func (u *Un) Eval(asn Assignment) int64 { return evalUn(u.Op, u.X.Eval(asn)) }

func (u *Un) appendVarIDs(buf []int) []int { return u.X.appendVarIDs(buf) }

func (u *Un) write(sb *strings.Builder) {
	sb.WriteString(u.Op.String())
	sb.WriteString("(")
	u.X.write(sb)
	sb.WriteString(")")
}

func (u *Un) size() int { return u.sz }

// String implements fmt.Stringer.
func (u *Un) String() string { return Format(u) }

// Bin is a binary operator applied to two sub-expressions.
type Bin struct {
	Op   Op
	L, R Expr
	sz   int
}

// Eval implements Expr.
func (b *Bin) Eval(asn Assignment) int64 {
	return evalBin(b.Op, b.L.Eval(asn), b.R.Eval(asn))
}

func (b *Bin) appendVarIDs(buf []int) []int {
	return b.R.appendVarIDs(b.L.appendVarIDs(buf))
}

func (b *Bin) write(sb *strings.Builder) {
	sb.WriteString("(")
	b.L.write(sb)
	sb.WriteString(" ")
	sb.WriteString(b.Op.String())
	sb.WriteString(" ")
	b.R.write(sb)
	sb.WriteString(")")
}

func (b *Bin) size() int { return b.sz }

// String implements fmt.Stringer.
func (b *Bin) String() string { return Format(b) }

func evalUn(op Op, x int64) int64 {
	switch op {
	case OpNeg:
		return -x
	case OpBNot:
		return ^x
	case OpNot:
		if x == 0 {
			return 1
		}
		return 0
	case OpBool:
		if x != 0 {
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("sym: bad unary op %v", op))
}

func evalBin(op Op, l, r int64) int64 {
	switch op {
	case OpAdd:
		return l + r
	case OpSub:
		return l - r
	case OpMul:
		return l * r
	case OpDiv:
		if r == 0 {
			return 0 // division by zero is trapped by the VM before here
		}
		return l / r
	case OpMod:
		if r == 0 {
			return 0
		}
		return l % r
	case OpAnd:
		return l & r
	case OpOr:
		return l | r
	case OpXor:
		return l ^ r
	case OpShl:
		return l << uint64(r&63)
	case OpShr:
		return l >> uint64(r&63)
	case OpEq:
		return b2i(l == r)
	case OpNe:
		return b2i(l != r)
	case OpLt:
		return b2i(l < r)
	case OpLe:
		return b2i(l <= r)
	case OpGt:
		return b2i(l > r)
	case OpGe:
		return b2i(l >= r)
	}
	panic(fmt.Sprintf("sym: bad binary op %v", op))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Format renders an expression using infix syntax.
func Format(e Expr) string {
	var sb strings.Builder
	e.write(&sb)
	return sb.String()
}

// Size returns the number of nodes in the expression tree. It is used to cap
// constraint complexity and as a metric in experiment reports.
func Size(e Expr) int { return e.size() }

// AppendVarIDs appends the ID of every input-variable occurrence in e to buf
// and returns the extended slice. Duplicates are preserved; callers needing a
// set should sort and compact.
func AppendVarIDs(e Expr, buf []int) []int { return e.appendVarIDs(buf) }

// IsConst reports whether e is a constant, returning its value when so.
func IsConst(e Expr) (int64, bool) {
	if c, ok := e.(*Const); ok {
		return c.V, true
	}
	return 0, false
}
