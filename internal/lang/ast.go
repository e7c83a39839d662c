package lang

import (
	"fmt"
	"sync"
)

// Region tags a compilation unit as application or library code. The paper's
// Figure 3 splits branch statistics along this axis, and §5.3 treats all
// library branches as symbolic when static analysis cannot process the
// merged library sources.
type Region int

// Regions.
const (
	RegionApp Region = iota
	RegionLib
)

// String implements fmt.Stringer.
func (r Region) String() string {
	if r == RegionLib {
		return "lib"
	}
	return "app"
}

// BranchID identifies one branch location (a branch site in the source, not
// one dynamic execution of it). IDs are dense, assigned in source order
// during linking, and stable for a given program text.
type BranchID int

// BranchKind says which construct a branch site belongs to.
type BranchKind int

// Branch kinds.
const (
	BranchIf BranchKind = iota
	BranchWhile
	BranchFor
	BranchAnd // right operand guard of &&
	BranchOr  // right operand guard of ||
)

// String implements fmt.Stringer.
func (k BranchKind) String() string {
	return [...]string{"if", "while", "for", "&&", "||"}[k]
}

// BranchSite is the static description of one branch location.
type BranchSite struct {
	ID     BranchID
	Kind   BranchKind
	Pos    Pos
	Func   string // enclosing function name
	Region Region
}

// String implements fmt.Stringer.
func (b *BranchSite) String() string {
	return fmt.Sprintf("b%d(%s@%s)", b.ID, b.Kind, b.Pos)
}

// VarDecl declares a global, local or parameter. Every VarDecl is assigned a
// storage slot by the resolver: globals index the program's global table,
// locals and params index the function frame.
type VarDecl struct {
	Name    string
	Pos     Pos
	IsArray bool
	Size    int64 // number of cells for arrays
	Init    Expr  // optional initializer (scalars only)
	IsPtr   bool  // declared with * (or an [] parameter)

	Global bool
	Slot   int // global index or frame slot
}

// Param is a function parameter.
type Param struct {
	Decl *VarDecl
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Name   string
	Pos    Pos
	Params []Param
	Body   *Block
	Region Region

	// NumSlots is the frame size (params + locals), set by the resolver.
	NumSlots int
	// Locals lists every local VarDecl (excluding params) in declaration
	// order; used by analyses.
	Locals []*VarDecl
}

// Unit is one parsed source unit, before linking.
type Unit struct {
	Name    string
	Region  Region
	Funcs   []*FuncDecl
	Globals []*VarDecl
}

// Program is a linked MiniC program, ready for execution and analysis. A
// linked Program is immutable and must not be copied (it memoises its Hash
// and its compiled form).
type Program struct {
	Units    []*Unit
	Funcs    map[string]*FuncDecl
	FuncList []*FuncDecl // deterministic order
	Globals  []*VarDecl
	Branches []*BranchSite
	Main     *FuncDecl

	hashOnce sync.Once
	hash     string

	compileOnce sync.Once
	compiled    any
	compileErr  error
}

// BranchesIn returns the branch sites belonging to the given region.
func (p *Program) BranchesIn(r Region) []*BranchSite {
	var out []*BranchSite
	for _, b := range p.Branches {
		if b.Region == r {
			out = append(out, b)
		}
	}
	return out
}

// Stmt is a statement node.
type Stmt interface {
	stmtNode()
	StmtPos() Pos
}

// Expr is an expression node.
type Expr interface {
	exprNode()
	ExprPos() Pos
}

// Block is a `{ ... }` statement list with its own scope.
type Block struct {
	Pos   Pos
	Stmts []Stmt
}

// If is a conditional with a branch site.
type If struct {
	Pos    Pos
	Cond   Expr
	Then   Stmt
	Else   Stmt // may be nil
	Branch *BranchSite
}

// While is a pre-test loop with a branch site.
type While struct {
	Pos    Pos
	Cond   Expr
	Body   Stmt
	Branch *BranchSite
}

// For is a C-style for loop; Cond may be nil (infinite loop, no branch site).
type For struct {
	Pos    Pos
	Init   Stmt // may be nil; ExprStmt or DeclStmt
	Cond   Expr // may be nil
	Post   Stmt // may be nil
	Body   Stmt
	Branch *BranchSite // nil when Cond is nil
}

// Return exits the enclosing function, optionally with a value.
type Return struct {
	Pos Pos
	E   Expr // may be nil
}

// Break exits the innermost loop.
type Break struct{ Pos Pos }

// Continue re-tests the innermost loop.
type Continue struct{ Pos Pos }

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct {
	Pos Pos
	E   Expr
}

// DeclStmt declares a local variable.
type DeclStmt struct {
	Pos  Pos
	Decl *VarDecl
}

func (*Block) stmtNode()    {}
func (*If) stmtNode()       {}
func (*While) stmtNode()    {}
func (*For) stmtNode()      {}
func (*Return) stmtNode()   {}
func (*Break) stmtNode()    {}
func (*Continue) stmtNode() {}
func (*ExprStmt) stmtNode() {}
func (*DeclStmt) stmtNode() {}

// StmtPos implements Stmt.
func (s *Block) StmtPos() Pos { return s.Pos }

// StmtPos implements Stmt.
func (s *If) StmtPos() Pos { return s.Pos }

// StmtPos implements Stmt.
func (s *While) StmtPos() Pos { return s.Pos }

// StmtPos implements Stmt.
func (s *For) StmtPos() Pos { return s.Pos }

// StmtPos implements Stmt.
func (s *Return) StmtPos() Pos { return s.Pos }

// StmtPos implements Stmt.
func (s *Break) StmtPos() Pos { return s.Pos }

// StmtPos implements Stmt.
func (s *Continue) StmtPos() Pos { return s.Pos }

// StmtPos implements Stmt.
func (s *ExprStmt) StmtPos() Pos { return s.Pos }

// StmtPos implements Stmt.
func (s *DeclStmt) StmtPos() Pos { return s.Pos }

// IntLit is an integer (or char) literal.
type IntLit struct {
	Pos Pos
	V   int64
}

// StrLit is a string literal; the VM interns one NUL-terminated object per
// literal site per run.
type StrLit struct {
	Pos Pos
	S   string
}

// Ident references a variable.
type Ident struct {
	Pos  Pos
	Name string
	Decl *VarDecl // set by the resolver
}

// Unary is !x, -x, ~x.
type Unary struct {
	Pos Pos
	Op  Kind // BANG, MINUS, TILDE
	X   Expr
}

// Binary is a non-short-circuit binary operator.
type Binary struct {
	Pos  Pos
	Op   Kind
	L, R Expr
}

// Logic is && or ||; evaluating the right operand is guarded by a branch.
type Logic struct {
	Pos    Pos
	Op     Kind // ANDAND or OROR
	L, R   Expr
	Branch *BranchSite
}

// Assign stores into an lvalue. Op is ASSIGN or a compound-assignment token.
type Assign struct {
	Pos Pos
	Op  Kind
	LHS Expr // Ident, Index or Deref
	RHS Expr
}

// IncDec is x++ or x-- (postfix; value is the old one).
type IncDec struct {
	Pos  Pos
	Op   Kind // PLUSPLUS or MINUSMIN
	X    Expr // Ident, Index or Deref
	Post bool
}

// Call invokes a function or builtin.
type Call struct {
	Pos     Pos
	Name    string
	Args    []Expr
	Func    *FuncDecl // non-nil for MiniC functions; nil for builtins
	Builtin bool
}

// Index is a[i] over an array or pointer.
type Index struct {
	Pos  Pos
	Base Expr
	Idx  Expr
}

// AddrOf is &x or &a[i].
type AddrOf struct {
	Pos Pos
	X   Expr // Ident or Index
}

// Deref is *p.
type Deref struct {
	Pos Pos
	X   Expr
}

func (*IntLit) exprNode() {}
func (*StrLit) exprNode() {}
func (*Ident) exprNode()  {}
func (*Unary) exprNode()  {}
func (*Binary) exprNode() {}
func (*Logic) exprNode()  {}
func (*Assign) exprNode() {}
func (*IncDec) exprNode() {}
func (*Call) exprNode()   {}
func (*Index) exprNode()  {}
func (*AddrOf) exprNode() {}
func (*Deref) exprNode()  {}

// ExprPos implements Expr.
func (e *IntLit) ExprPos() Pos { return e.Pos }

// ExprPos implements Expr.
func (e *StrLit) ExprPos() Pos { return e.Pos }

// ExprPos implements Expr.
func (e *Ident) ExprPos() Pos { return e.Pos }

// ExprPos implements Expr.
func (e *Unary) ExprPos() Pos { return e.Pos }

// ExprPos implements Expr.
func (e *Binary) ExprPos() Pos { return e.Pos }

// ExprPos implements Expr.
func (e *Logic) ExprPos() Pos { return e.Pos }

// ExprPos implements Expr.
func (e *Assign) ExprPos() Pos { return e.Pos }

// ExprPos implements Expr.
func (e *IncDec) ExprPos() Pos { return e.Pos }

// ExprPos implements Expr.
func (e *Call) ExprPos() Pos { return e.Pos }

// ExprPos implements Expr.
func (e *Index) ExprPos() Pos { return e.Pos }

// ExprPos implements Expr.
func (e *AddrOf) ExprPos() Pos { return e.Pos }

// ExprPos implements Expr.
func (e *Deref) ExprPos() Pos { return e.Pos }
