// Package static implements the paper's static analysis (§2.2, Algorithms 1
// and 2): an interprocedural dataflow analysis combined with a points-to
// analysis that over-approximates the set of symbolic branches.
//
// The lattice is monotone — taint and points-to sets only grow — so the
// analysis iterates all discovered (function, symbolic-parameter-pattern)
// contexts to a global fixed point. Per the paper's footnote, functions are
// summarized per combination of symbolic parameters, not merged across call
// sites. Imprecision enters exactly where the paper says it does: the
// points-to analysis is field-insensitive (one abstract object per array),
// so a single tainted cell taints the whole object, and any branch whose
// condition may read tainted memory is labeled symbolic. Every truly
// symbolic branch is found; some concrete branches are over-labeled.
package static

import (
	"sort"

	"pathlog/internal/lang"
)

// Options configure the analysis.
type Options struct {
	// LibAsSymbolic reproduces §5.3: the merged library sources are too
	// large for the points-to analysis, so library function bodies are not
	// analyzed (conservative summaries are used instead) and every library
	// branch is labeled symbolic.
	LibAsSymbolic bool
}

// Analysis bounds. maxContexts bounds the number of (function, pattern)
// summaries; maxPasses bounds global fixpoint iterations.
const (
	maxContexts = 4096
	maxPasses   = 64
)

// Report is the analysis outcome.
type Report struct {
	// SymbolicBranches holds the branch locations labeled symbolic.
	SymbolicBranches map[lang.BranchID]bool
	// Contexts is the number of (function, pattern) summaries computed.
	Contexts int
	// Passes is the number of global fixpoint passes.
	Passes int
}

// CountSymbolic returns the number of branch locations labeled symbolic.
func (r *Report) CountSymbolic() int {
	n := 0
	for _, v := range r.SymbolicBranches {
		if v {
			n++
		}
	}
	return n
}

// object is an abstract memory object: an array/scalar declaration site or a
// string literal.
type object interface{}

type objSet map[object]bool

func (s objSet) addAll(o objSet) bool {
	changed := false
	for k := range o {
		if !s[k] {
			s[k] = true
			changed = true
		}
	}
	return changed
}

// summaryKey identifies one analysis context.
type summaryKey struct {
	fn      *lang.FuncDecl
	pattern uint64
}

// summary is a per-context function summary.
type summary struct {
	retSym bool
	// retPt is the may-points-to set of returned pointers (accumulated
	// across contexts; pointer flow is context-insensitive).
	retPt objSet
}

// Analysis carries the global fixpoint state.
type Analysis struct {
	prog *lang.Program
	opts Options

	objTaint    map[object]bool
	globalTaint map[*lang.VarDecl]bool
	pointsTo    map[*lang.VarDecl]objSet
	summaries   map[summaryKey]*summary
	branchSym   map[lang.BranchID]bool
	order       []summaryKey // deterministic iteration order

	changed bool
	passes  int
}

// Analyze runs the static analysis to fixpoint and labels branches.
func Analyze(prog *lang.Program, opts Options) *Report {
	a := &Analysis{
		prog:        prog,
		opts:        opts,
		objTaint:    make(map[object]bool),
		globalTaint: make(map[*lang.VarDecl]bool),
		pointsTo:    make(map[*lang.VarDecl]objSet),
		summaries:   make(map[summaryKey]*summary),
		branchSym:   make(map[lang.BranchID]bool),
	}
	a.enqueue(summaryKey{fn: prog.Main, pattern: 0})

	for pass := 0; pass < maxPasses; pass++ {
		a.passes++
		a.changed = false
		for i := 0; i < len(a.order); i++ { // order may grow during the pass
			a.analyzeContext(a.order[i])
		}
		if !a.changed {
			break
		}
	}

	if opts.LibAsSymbolic {
		for _, b := range prog.Branches {
			if b.Region == lang.RegionLib {
				a.branchSym[b.ID] = true
			}
		}
	}

	return &Report{
		SymbolicBranches: a.branchSym,
		Contexts:         len(a.summaries),
		Passes:           a.passes,
	}
}

func (a *Analysis) enqueue(k summaryKey) *summary {
	if s, ok := a.summaries[k]; ok {
		return s
	}
	if len(a.summaries) >= maxContexts {
		// Context budget exhausted: merge into pattern 0 conservatively.
		if s, ok := a.summaries[summaryKey{fn: k.fn, pattern: 0}]; ok {
			return s
		}
	}
	s := &summary{retPt: make(objSet)}
	a.summaries[k] = s
	a.order = append(a.order, k)
	a.changed = true
	return s
}

func (a *Analysis) ptOf(d *lang.VarDecl) objSet {
	s, ok := a.pointsTo[d]
	if !ok {
		s = make(objSet)
		a.pointsTo[d] = s
	}
	return s
}

func (a *Analysis) taintObjects(objs objSet) bool {
	changed := false
	for o := range objs {
		if !a.objTaint[o] {
			a.objTaint[o] = true
			a.changed = true
			changed = true
		}
	}
	return changed
}

func (a *Analysis) anyObjTainted(objs objSet) bool {
	for o := range objs {
		if a.objTaint[o] {
			return true
		}
	}
	return false
}

func (a *Analysis) markBranch(site *lang.BranchSite, symbolic bool) {
	if symbolic && !a.branchSym[site.ID] {
		a.branchSym[site.ID] = true
		a.changed = true
	}
}

// ctx is the per-(function, pattern) local dataflow state.
type ctx struct {
	a     *Analysis
	fn    *lang.FuncDecl
	key   summaryKey
	taint map[*lang.VarDecl]bool // scalar and pointer locals/params
	dirty bool
}

// analyzeContext runs one context's body to a local fixed point.
func (a *Analysis) analyzeContext(k summaryKey) {
	if k.fn.Body == nil {
		return
	}
	if a.opts.LibAsSymbolic && k.fn.Region == lang.RegionLib {
		return // library bodies are not analyzed in this mode
	}
	c := &ctx{a: a, fn: k.fn, key: k, taint: make(map[*lang.VarDecl]bool)}
	for i, prm := range k.fn.Params {
		if k.pattern&(1<<uint(i)) != 0 {
			c.taint[prm.Decl] = true
		}
	}
	// Local fixpoint: taint only grows, so iterate until stable.
	for pass := 0; pass < 1+len(k.fn.Locals)+len(k.fn.Params); pass++ {
		c.dirty = false
		c.stmt(k.fn.Body)
		if !c.dirty {
			break
		}
	}
}

func (c *ctx) setTaint(d *lang.VarDecl, v bool) {
	if !v {
		return
	}
	if d.Global {
		if !c.a.globalTaint[d] {
			c.a.globalTaint[d] = true
			c.a.changed = true
			c.dirty = true
		}
		return
	}
	if !c.taint[d] {
		c.taint[d] = true
		c.dirty = true
	}
}

func (c *ctx) varTaint(d *lang.VarDecl) bool {
	if d.Global {
		return c.a.globalTaint[d]
	}
	return c.taint[d]
}

// flow is the abstract value of an expression: may it be symbolic, and what
// may it point to.
type flow struct {
	sym bool
	pt  objSet
}

func (c *ctx) stmt(s lang.Stmt) {
	switch st := s.(type) {
	case *lang.Block:
		for _, inner := range st.Stmts {
			c.stmt(inner)
		}
	case *lang.DeclStmt:
		if st.Decl.Init != nil {
			f := c.expr(st.Decl.Init)
			c.setTaint(st.Decl, f.sym)
			if len(f.pt) > 0 {
				if c.a.ptOf(st.Decl).addAll(f.pt) {
					c.a.changed = true
					c.dirty = true
				}
			}
		}
	case *lang.ExprStmt:
		c.expr(st.E)
	case *lang.Return:
		if st.E != nil {
			f := c.expr(st.E)
			sum := c.a.summaries[c.key]
			if f.sym && !sum.retSym {
				sum.retSym = true
				c.a.changed = true
				c.dirty = true
			}
			if len(f.pt) > 0 && sum.retPt.addAll(f.pt) {
				c.a.changed = true
				c.dirty = true
			}
		}
	case *lang.Break, *lang.Continue:
	case *lang.If:
		f := c.expr(st.Cond)
		c.a.markBranch(st.Branch, f.sym)
		c.stmt(st.Then)
		if st.Else != nil {
			c.stmt(st.Else)
		}
	case *lang.While:
		f := c.expr(st.Cond)
		c.a.markBranch(st.Branch, f.sym)
		c.stmt(st.Body)
		// Loop bodies can feed the condition; the enclosing local fixpoint
		// re-walks the whole body, which covers this back edge.
	case *lang.For:
		if st.Init != nil {
			c.stmt(st.Init)
		}
		if st.Cond != nil {
			f := c.expr(st.Cond)
			c.a.markBranch(st.Branch, f.sym)
		}
		if st.Post != nil {
			c.stmt(st.Post)
		}
		c.stmt(st.Body)
	}
}

func (c *ctx) expr(e lang.Expr) flow {
	switch x := e.(type) {
	case *lang.IntLit:
		return flow{}
	case *lang.StrLit:
		return flow{pt: objSet{x: true}}
	case *lang.Ident:
		d := x.Decl
		if d.IsArray {
			return flow{pt: objSet{d: true}}
		}
		return flow{sym: c.varTaint(d), pt: c.a.ptOf(d)}
	case *lang.Unary:
		f := c.expr(x.X)
		return flow{sym: f.sym}
	case *lang.Binary:
		l := c.expr(x.L)
		r := c.expr(x.R)
		// Pointer arithmetic keeps the pointer's targets.
		pt := make(objSet)
		pt.addAll(l.pt)
		pt.addAll(r.pt)
		return flow{sym: l.sym || r.sym, pt: pt}
	case *lang.Logic:
		l := c.expr(x.L)
		// The short-circuit guard branches on the left operand.
		c.a.markBranch(x.Branch, l.sym)
		r := c.expr(x.R)
		return flow{sym: l.sym || r.sym}
	case *lang.Assign:
		rhs := c.expr(x.RHS)
		effective := rhs.sym
		if x.Op != lang.ASSIGN {
			// Compound assignment reads the old value too.
			old := c.expr(x.LHS)
			effective = effective || old.sym
		}
		c.store(x.LHS, flow{sym: effective, pt: rhs.pt})
		return flow{sym: effective, pt: rhs.pt}
	case *lang.IncDec:
		f := c.expr(x.X)
		c.store(x.X, f)
		return f
	case *lang.Call:
		return c.call(x)
	case *lang.Index:
		base := c.expr(x.Base)
		idx := c.expr(x.Idx)
		loaded := base.sym || idx.sym || c.a.anyObjTainted(base.pt)
		return flow{sym: loaded}
	case *lang.AddrOf:
		switch t := x.X.(type) {
		case *lang.Ident:
			if t.Decl.IsArray {
				return flow{pt: objSet{t.Decl: true}}
			}
			return flow{pt: objSet{t.Decl: true}}
		case *lang.Index:
			base := c.expr(t.Base)
			c.expr(t.Idx)
			return flow{pt: base.pt}
		}
		return flow{}
	case *lang.Deref:
		f := c.expr(x.X)
		return flow{sym: f.sym || c.a.anyObjTainted(f.pt)}
	}
	return flow{}
}

// store models an assignment into an lvalue.
func (c *ctx) store(lhs lang.Expr, val flow) {
	switch t := lhs.(type) {
	case *lang.Ident:
		c.setTaint(t.Decl, val.sym)
		if len(val.pt) > 0 {
			if c.a.ptOf(t.Decl).addAll(val.pt) {
				c.a.changed = true
				c.dirty = true
			}
		}
	case *lang.Index:
		base := c.expr(t.Base)
		c.expr(t.Idx)
		if val.sym && c.a.taintObjects(base.pt) {
			c.dirty = true
		}
	case *lang.Deref:
		f := c.expr(t.X)
		if val.sym && c.a.taintObjects(f.pt) {
			c.dirty = true
		}
	}
}

// call models function and builtin calls.
func (c *ctx) call(x *lang.Call) flow {
	flows := make([]flow, len(x.Args))
	for i, arg := range x.Args {
		flows[i] = c.expr(arg)
	}
	if x.Builtin {
		return c.builtinCall(x, flows)
	}
	fn := x.Func

	// Bind pointer arguments: the callee parameter may point to everything
	// the actual may point to (context-insensitive pointer flow).
	for i, prm := range fn.Params {
		if len(flows[i].pt) > 0 {
			if c.a.ptOf(prm.Decl).addAll(flows[i].pt) {
				c.a.changed = true
				c.dirty = true
			}
		}
	}

	// Conservative summaries for unanalyzed library functions (§5.3 mode).
	if c.a.opts.LibAsSymbolic && fn.Region == lang.RegionLib {
		anySym := false
		for _, f := range flows {
			if f.sym || c.a.anyObjTainted(f.pt) {
				anySym = true
				break
			}
		}
		if anySym {
			// Unknown code may copy input anywhere it can reach.
			for _, f := range flows {
				if c.a.taintObjects(f.pt) {
					c.dirty = true
				}
			}
		}
		pt := make(objSet)
		for _, f := range flows {
			pt.addAll(f.pt)
		}
		return flow{sym: anySym, pt: pt}
	}

	var pattern uint64
	for i, f := range flows {
		if i >= 64 {
			break
		}
		if f.sym {
			pattern |= 1 << uint(i)
		}
	}
	sum := c.a.enqueue(summaryKey{fn: fn, pattern: pattern})
	return flow{sym: sum.retSym, pt: sum.retPt}
}

// builtinCall applies the intrinsic summaries of VM builtins.
func (c *ctx) builtinCall(x *lang.Call, flows []flow) flow {
	switch x.Name {
	case "getarg":
		// getarg(i, buf, cap): fills buf with input; length is input-derived.
		if len(flows) >= 2 && c.a.taintObjects(flows[1].pt) {
			c.dirty = true
		}
		return flow{sym: true}
	case "read":
		// read(fd, buf, n): fills buf with input; count is input-derived.
		if len(flows) >= 2 && c.a.taintObjects(flows[1].pt) {
			c.dirty = true
		}
		return flow{sym: true}
	case "argcount", "select_ready":
		// Input-dependent (argument count; environment readiness).
		return flow{sym: true}
	case "accept", "open", "listen_socket", "close", "write",
		"signal_pending", "print_int", "print_str", "print_char",
		"exit", "crash":
		return flow{}
	}
	return flow{}
}

// SymbolicBranchIDs returns the sorted list of symbolic branch IDs of a
// report, for deterministic output in tools and tests.
func (r *Report) SymbolicBranchIDs() []lang.BranchID {
	out := make([]lang.BranchID, 0, len(r.SymbolicBranches))
	for id, v := range r.SymbolicBranches {
		if v {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
