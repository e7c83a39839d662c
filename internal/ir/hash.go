package ir

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"pathlog/internal/lang"
)

// hashProgram computes the structural hash that keys the compile cache. It
// covers everything bytecode generation and observable behavior depend on:
// the global table (slots, sizes, initializers), every function body down to
// literals and positions (positions feed crash attribution), and the branch
// sites with their IDs. Note the deployment hash (lang.Program.Hash) is NOT
// sufficient here — it hashes units, signatures and branch sites but not
// statement bodies.
func hashProgram(p *lang.Program) string {
	d := sha256.New()
	h := &hasher{w: d}
	fmt.Fprintf(d, "prog %d %d %s\n", len(p.Globals), len(p.FuncList), p.Main.Name)
	for _, g := range p.Globals {
		h.decl(g)
	}
	for _, fn := range p.FuncList {
		fmt.Fprintf(d, "func %s %d %d ", fn.Name, fn.NumSlots, len(fn.Params))
		h.pos(fn.Pos)
		for _, pr := range fn.Params {
			h.decl(pr.Decl)
		}
		h.stmt(fn.Body)
	}
	return hex.EncodeToString(d.Sum(nil))
}

type hasher struct {
	w hash.Hash
}

func (h *hasher) pos(p lang.Pos) {
	fmt.Fprintf(h.w, "@%s:%d:%d;", p.Unit, p.Line, p.Col)
}

func (h *hasher) decl(d *lang.VarDecl) {
	fmt.Fprintf(h.w, "var %s g=%t a=%t n=%d s=%d ", d.Name, d.Global, d.IsArray, d.Size, d.Slot)
	h.pos(d.Pos)
	if d.Init != nil {
		h.expr(d.Init)
	}
	fmt.Fprint(h.w, ";")
}

func (h *hasher) site(b *lang.BranchSite) {
	if b == nil {
		fmt.Fprint(h.w, "b-;")
		return
	}
	fmt.Fprintf(h.w, "b%d %d %s %d ", b.ID, b.Kind, b.Func, b.Region)
	h.pos(b.Pos)
}

func (h *hasher) stmt(s lang.Stmt) {
	if s == nil {
		fmt.Fprint(h.w, "nil;")
		return
	}
	switch st := s.(type) {
	case *lang.Block:
		fmt.Fprintf(h.w, "blk %d ", len(st.Stmts))
		h.pos(st.Pos)
		for _, inner := range st.Stmts {
			h.stmt(inner)
		}
	case *lang.DeclStmt:
		fmt.Fprint(h.w, "decl ")
		h.pos(st.Pos)
		h.decl(st.Decl)
	case *lang.ExprStmt:
		fmt.Fprint(h.w, "exprst ")
		h.pos(st.Pos)
		h.expr(st.E)
	case *lang.Return:
		fmt.Fprint(h.w, "ret ")
		h.pos(st.Pos)
		if st.E != nil {
			h.expr(st.E)
		}
	case *lang.Break:
		fmt.Fprint(h.w, "brk ")
		h.pos(st.Pos)
	case *lang.Continue:
		fmt.Fprint(h.w, "cont ")
		h.pos(st.Pos)
	case *lang.If:
		fmt.Fprint(h.w, "if ")
		h.pos(st.Pos)
		h.site(st.Branch)
		h.expr(st.Cond)
		h.stmt(st.Then)
		h.stmt(st.Else)
	case *lang.While:
		fmt.Fprint(h.w, "while ")
		h.pos(st.Pos)
		h.site(st.Branch)
		h.expr(st.Cond)
		h.stmt(st.Body)
	case *lang.For:
		fmt.Fprint(h.w, "for ")
		h.pos(st.Pos)
		h.site(st.Branch)
		h.stmt(st.Init)
		if st.Cond != nil {
			h.expr(st.Cond)
		} else {
			fmt.Fprint(h.w, "nocond;")
		}
		h.stmt(st.Post)
		h.stmt(st.Body)
	default:
		fmt.Fprintf(h.w, "stmt?%T;", s)
	}
}

func (h *hasher) expr(e lang.Expr) {
	switch x := e.(type) {
	case *lang.IntLit:
		fmt.Fprintf(h.w, "int %d ", x.V)
		h.pos(x.Pos)
	case *lang.StrLit:
		fmt.Fprintf(h.w, "str %q ", x.S)
		h.pos(x.Pos)
	case *lang.Ident:
		d := x.Decl
		fmt.Fprintf(h.w, "id %s g=%t a=%t s=%d ", x.Name, d.Global, d.IsArray, d.Slot)
		h.pos(x.Pos)
	case *lang.Unary:
		fmt.Fprintf(h.w, "un %d ", x.Op)
		h.pos(x.Pos)
		h.expr(x.X)
	case *lang.Binary:
		fmt.Fprintf(h.w, "bin %d ", x.Op)
		h.pos(x.Pos)
		h.expr(x.L)
		h.expr(x.R)
	case *lang.Logic:
		fmt.Fprintf(h.w, "logic %d ", x.Op)
		h.pos(x.Pos)
		h.site(x.Branch)
		h.expr(x.L)
		h.expr(x.R)
	case *lang.Assign:
		fmt.Fprintf(h.w, "asn %d ", x.Op)
		h.pos(x.Pos)
		h.expr(x.LHS)
		h.expr(x.RHS)
	case *lang.IncDec:
		fmt.Fprintf(h.w, "incdec %d ", x.Op)
		h.pos(x.Pos)
		h.expr(x.X)
	case *lang.Call:
		fmt.Fprintf(h.w, "call %s %d b=%t ", x.Name, len(x.Args), x.Func == nil)
		h.pos(x.Pos)
		for _, a := range x.Args {
			h.expr(a)
		}
	case *lang.Index:
		fmt.Fprint(h.w, "idx ")
		h.pos(x.Pos)
		h.expr(x.Base)
		h.expr(x.Idx)
	case *lang.AddrOf:
		fmt.Fprint(h.w, "addr ")
		h.pos(x.Pos)
		h.expr(x.X)
	case *lang.Deref:
		fmt.Fprint(h.w, "deref ")
		h.pos(x.Pos)
		h.expr(x.X)
	default:
		fmt.Fprintf(h.w, "expr?%T;", e)
	}
	fmt.Fprint(h.w, ";")
}
