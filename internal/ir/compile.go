package ir

import (
	"fmt"

	"pathlog/internal/lang"
	"pathlog/internal/vm"
)

// compile translates a linked program to register code. The compiler
// simulates the tree walker's step accounting at compile time: every
// statement and expression node charges one step on entry (pre-order), so the
// compiler accumulates a pending charge per node it enters and attaches the
// accumulated run to the first instruction emitted inside that subtree. The
// pending count must be flushed — attached to an emitted instruction on the
// same control-flow edge — before any label is bound, or a charge that the
// tree walker applies once per entry would be re-applied every loop
// iteration (or skipped on a join edge). Loop back-edges and unconditional
// jumps absorb their edge's pending charges themselves.
//
// Registers are allocated by operand depth: an expression's value computed
// at depth d lives in register d. Statements compile at depth 0, and the one
// mid-expression join, the short-circuit merge, lands at the same depth on
// both edges, so the depth at every pc is a compile-time constant.
func compile(prog *lang.Program) (*Program, error) {
	c := &compiler{
		prog: prog,
		out:  &Program{Src: prog},
		fns:  make(map[*lang.FuncDecl]*FuncCode, len(prog.FuncList)),
		strs: make(map[*lang.StrLit]int),
	}
	for _, fn := range prog.FuncList {
		fc := &FuncCode{Decl: fn, FrameName: fn.Name + ".frame"}
		c.fns[fn] = fc
		c.out.Funcs = append(c.out.Funcs, fc)
	}
	if err := c.compileInit(); err != nil {
		return nil, err
	}
	for _, fn := range prog.FuncList {
		fc := c.fns[fn]
		if err := c.compileFunc(fc); err != nil {
			return nil, fmt.Errorf("ir: compiling %s: %w", fn.Name, err)
		}
	}
	c.out.Main = c.fns[prog.Main]
	if c.out.Main == nil {
		return nil, fmt.Errorf("ir: program has no main")
	}
	return c.out, nil
}

type compiler struct {
	prog *lang.Program
	out  *Program
	fns  map[*lang.FuncDecl]*FuncCode
	strs map[*lang.StrLit]int
}

// strIndex interns a string-literal site in the constant pool.
func (c *compiler) strIndex(s *lang.StrLit) int {
	if i, ok := c.strs[s]; ok {
		return i
	}
	i := len(c.out.Strings)
	c.strs[s] = i
	c.out.Strings = append(c.out.Strings, s.S)
	return i
}

// compileInit emits the global-initializer code: each initializer expression
// in declaration order, stored to its global. Matches the tree walker's
// initGlobals charge-for-charge (initializers charge only their expression
// nodes; there is no statement wrapper).
func (c *compiler) compileInit() error {
	f := &funcCompiler{c: c}
	for i, g := range c.prog.Globals {
		if g.Init == nil {
			continue
		}
		if err := f.compileExpr(g.Init); err != nil {
			return fmt.Errorf("ir: compiling init of global %s: %w", g.Name, err)
		}
		f.emit(RInstr{Op: RStoreGlobal, Dst: -1, A: int32(i), B: f.d - 1}, -1)
	}
	c.out.RInit, c.out.InitRegs = fuse(f.code), int(f.nregs)
	return nil
}

func (c *compiler) compileFunc(fc *FuncCode) error {
	f := &funcCompiler{c: c}
	if err := f.compileStmt(fc.Decl.Body); err != nil {
		return err
	}
	// Fall-through function end: the tree walker returns integer 0 when the
	// body completes without a return statement. The trailing RRetZero also
	// absorbs pending charges of empty trailing statements.
	f.emit(RInstr{Op: RRetZero, Dst: -1}, 0)
	fc.RCode, fc.NumRegs = fuse(f.code), int(f.nregs)
	return nil
}

// funcCompiler compiles one function body (or the init code).
type funcCompiler struct {
	c       *compiler
	code    []RInstr
	pending int32
	// d is the operand depth: the next value computed lands in register d.
	d int32
	// nregs is the largest depth reached, the body's register count.
	nregs int32
	loops []loopCtx
}

type loopCtx struct {
	contTarget int32 // continue target; -1 when it is a forward label
	contSites  []int
	breakSites []int
}

// emit appends an instruction, attaching the pending step charges, and moves
// the operand depth by delta (the values it pushes minus those it pops).
func (f *funcCompiler) emit(r RInstr, delta int32) int {
	r.Steps = f.pending
	f.pending = 0
	f.code = append(f.code, r)
	f.d += delta
	if f.d > f.nregs {
		f.nregs = f.d
	}
	return len(f.code) - 1
}

// flush materializes pending charges as an RNop so a label can be bound at
// the current position without leaking the fall-through edge's charges into
// other edges.
func (f *funcCompiler) flush() {
	if f.pending > 0 {
		f.emit(RInstr{Op: RNop, Dst: -1}, 0)
	}
}

// pop discards the value on top of the operand depth (expression
// statements). Discarding a register value is free; if the dying value's
// producer is the last instruction, its dead destination write is elided:
// increments and compound stores keep their memory effect, and a pure load
// disappears — as a bare RNop when it carries charges, entirely when it does
// not (a zero-charge load is mid-expression, so its pc is no jump target).
func (f *funcCompiler) pop() {
	f.d--
	if len(f.code) == 0 {
		return
	}
	last := &f.code[len(f.code)-1]
	if last.Dst != f.d {
		return
	}
	switch last.Op {
	case RIncLocal, RIncCell, RStoreLocalOp, RStoreGlobalOp, RStoreCellOp:
		last.Dst = -1
	case RConst, RStr, RLoadLocal, RLoadGlobal, RGlobalPtr, RAddrLocal:
		if last.Steps > 0 {
			*last = RInstr{Op: RNop, Steps: last.Steps, Dst: -1}
		} else {
			f.code = f.code[:len(f.code)-1]
		}
	}
}

func (f *funcCompiler) here() int32 { return int32(len(f.code)) }

func (f *funcCompiler) compileStmt(s lang.Stmt) error {
	// One pre-order charge per statement execution, as in VM.execStmt.
	f.pending++
	switch st := s.(type) {
	case *lang.Block:
		for _, inner := range st.Stmts {
			if err := f.compileStmt(inner); err != nil {
				return err
			}
		}
		return nil

	case *lang.DeclStmt:
		d := st.Decl
		if d.IsArray {
			f.emit(RInstr{Op: RAllocArr, Dst: -1, A: int32(d.Slot), Val: d.Size, Name: d.Name}, 0)
			return nil
		}
		if d.Init != nil {
			if err := f.compileExpr(d.Init); err != nil {
				return err
			}
			f.emit(RInstr{Op: RStoreLocal, Dst: -1, A: int32(d.Slot), B: f.d - 1}, -1)
			return nil
		}
		f.emit(RInstr{Op: RZeroLocal, Dst: -1, A: int32(d.Slot)}, 0)
		return nil

	case *lang.ExprStmt:
		if err := f.compileExpr(st.E); err != nil {
			return err
		}
		f.pop()
		return nil

	case *lang.Return:
		if st.E != nil {
			if err := f.compileExpr(st.E); err != nil {
				return err
			}
			f.emit(RInstr{Op: RRet, Dst: -1, A: f.d - 1}, -1)
			return nil
		}
		f.emit(RInstr{Op: RRetZero, Dst: -1}, 0)
		return nil

	case *lang.Break:
		if len(f.loops) == 0 {
			return fmt.Errorf("break outside loop at %s", st.Pos)
		}
		l := &f.loops[len(f.loops)-1]
		l.breakSites = append(l.breakSites, f.emit(RInstr{Op: RJump, Dst: -1}, 0))
		return nil

	case *lang.Continue:
		if len(f.loops) == 0 {
			return fmt.Errorf("continue outside loop at %s", st.Pos)
		}
		l := &f.loops[len(f.loops)-1]
		if l.contTarget >= 0 {
			f.emit(RInstr{Op: RJump, Dst: -1, A: l.contTarget}, 0)
		} else {
			l.contSites = append(l.contSites, f.emit(RInstr{Op: RJump, Dst: -1}, 0))
		}
		return nil

	case *lang.If:
		br, err := f.compileBranch(st.Cond, st.Branch)
		if err != nil {
			return err
		}
		if err := f.compileStmt(st.Then); err != nil {
			return err
		}
		if st.Else != nil {
			j := f.emit(RInstr{Op: RJump, Dst: -1}, 0) // absorbs trailing then-charges
			f.code[br].C = f.here()
			if err := f.compileStmt(st.Else); err != nil {
				return err
			}
			f.flush() // trailing else-charges stay on the else edge
			f.code[j].A = f.here()
		} else {
			f.flush() // trailing then-charges stay on the then edge
			f.code[br].C = f.here()
		}
		return nil

	case *lang.While:
		f.flush() // the loop's own entry charge must not join the back-edge
		head := f.here()
		br, err := f.compileBranch(st.Cond, st.Branch)
		if err != nil {
			return err
		}
		f.loops = append(f.loops, loopCtx{contTarget: head})
		if err := f.compileStmt(st.Body); err != nil {
			return err
		}
		f.emit(RInstr{Op: RJump, Dst: -1, A: head}, 0) // absorbs trailing body charges
		exit := f.here()
		f.code[br].C = exit
		f.patchJumps(f.popLoop().breakSites, exit)
		return nil

	case *lang.For:
		if st.Init != nil {
			if err := f.compileStmt(st.Init); err != nil {
				return err
			}
		}
		f.flush() // entry edge: the For charge (and Init's, if it was empty)
		head := f.here()
		br := -1
		if st.Cond != nil {
			var err error
			if br, err = f.compileBranch(st.Cond, st.Branch); err != nil {
				return err
			}
		}
		f.loops = append(f.loops, loopCtx{contTarget: -1})
		if err := f.compileStmt(st.Body); err != nil {
			return err
		}
		f.flush() // trailing body charges happen on fall-through, not continue
		l := f.popLoop()
		f.patchJumps(l.contSites, f.here())
		if st.Post != nil {
			if err := f.compileStmt(st.Post); err != nil {
				return err
			}
		}
		f.emit(RInstr{Op: RJump, Dst: -1, A: head}, 0)
		exit := f.here()
		if br >= 0 {
			f.code[br].C = exit
		}
		f.patchJumps(l.breakSites, exit)
		return nil
	}
	return fmt.Errorf("unknown statement %T", s)
}

// compileBranch emits the condition of a branch site and its RBranch, whose
// then-target is the code that follows. It returns the branch's index so the
// caller can patch the else-target (C).
func (f *funcCompiler) compileBranch(cond lang.Expr, site *lang.BranchSite) (int, error) {
	if err := f.compileExpr(cond); err != nil {
		return 0, err
	}
	br := f.emit(RInstr{Op: RBranch, Dst: -1, A: f.d - 1, Site: site}, -1)
	f.code[br].B = f.here()
	return br, nil
}

// popLoop ends the innermost loop's scope for break and continue.
func (f *funcCompiler) popLoop() loopCtx {
	l := f.loops[len(f.loops)-1]
	f.loops = f.loops[:len(f.loops)-1]
	return l
}

// patchJumps points the jumps at sites to target.
func (f *funcCompiler) patchJumps(sites []int, target int32) {
	for _, site := range sites {
		f.code[site].A = target
	}
}

func (f *funcCompiler) compileExpr(e lang.Expr) error {
	// One pre-order charge per expression evaluation, as in VM.eval.
	f.pending++
	switch x := e.(type) {
	case *lang.IntLit:
		f.emit(RInstr{Op: RConst, Dst: f.d, Val: x.V}, 1)
		return nil

	case *lang.StrLit:
		f.emit(RInstr{Op: RStr, Dst: f.d, A: int32(f.c.strIndex(x))}, 1)
		return nil

	case *lang.Ident:
		d := x.Decl
		switch {
		case d.Global && d.IsArray:
			f.emit(RInstr{Op: RGlobalPtr, Dst: f.d, A: int32(d.Slot)}, 1)
		case d.Global:
			f.emit(RInstr{Op: RLoadGlobal, Dst: f.d, A: int32(d.Slot)}, 1)
		default:
			f.emit(RInstr{Op: RLoadLocal, Dst: f.d, A: int32(d.Slot)}, 1)
		}
		return nil

	case *lang.Unary:
		if err := f.compileExpr(x.X); err != nil {
			return err
		}
		f.emit(RInstr{Op: RUnary, Dst: f.d - 1, A: f.d - 1, Kind: x.Op, Pos: x.Pos}, 0)
		return nil

	case *lang.Binary:
		if err := f.compileExpr(x.L); err != nil {
			return err
		}
		if err := f.compileExpr(x.R); err != nil {
			return err
		}
		f.emit(RInstr{Op: RBinary, Dst: f.d - 2, A: f.d - 2, B: f.d - 1, Kind: x.Op, Pos: x.Pos}, -1)
		return nil

	case *lang.Logic:
		if err := f.compileExpr(x.L); err != nil {
			return err
		}
		// The left operand is consumed; the short-circuit result lands in
		// its register, where the right operand's coerced value also ends.
		sc := f.emit(RInstr{Op: RShortCircuit, Dst: f.d - 1, A: f.d - 1, Kind: x.Op, Site: x.Branch}, -1)
		if err := f.compileExpr(x.R); err != nil {
			return err
		}
		f.emit(RInstr{Op: RBool, Dst: f.d - 1, A: f.d - 1}, 0)
		f.code[sc].C = f.here()
		return nil

	case *lang.Assign:
		return f.compileAssign(x)

	case *lang.IncDec:
		delta := int64(1)
		if x.Op == lang.MINUSMIN {
			delta = -1
		}
		if id, ok := x.X.(*lang.Ident); ok && !id.Decl.Global && !id.Decl.IsArray {
			f.emit(RInstr{Op: RIncLocal, Dst: f.d, A: int32(id.Decl.Slot), Val: delta}, 1)
			return nil
		}
		if err := f.compileLValue(x.X); err != nil {
			return err
		}
		f.emit(RInstr{Op: RIncCell, Dst: f.d - 1, A: f.d - 1, Val: delta}, 0)
		return nil

	case *lang.Call:
		for _, a := range x.Args {
			if err := f.compileExpr(a); err != nil {
				return err
			}
		}
		n := int32(len(x.Args))
		if x.Func != nil {
			f.emit(RInstr{Op: RCall, Dst: f.d - n, A: f.d - n, B: n, Fn: f.c.fns[x.Func]}, 1-n)
			return nil
		}
		f.emit(RInstr{Op: RCallB, Dst: f.d - n, A: f.d - n, B: n, Name: x.Name, Pos: x.Pos}, 1-n)
		return nil

	case *lang.Index:
		if err := f.compileExpr(x.Base); err != nil {
			return err
		}
		if err := f.compileExpr(x.Idx); err != nil {
			return err
		}
		f.emit(RInstr{Op: RLoadIndex, Dst: f.d - 2, A: f.d - 2, B: f.d - 1, Pos: x.Pos}, -1)
		return nil

	case *lang.AddrOf:
		// The tree walker charges the AddrOf node, then resolves the lvalue
		// (whose own node is not charged); the address is the value.
		return f.compileLValue(x.X)

	case *lang.Deref:
		if err := f.compileExpr(x.X); err != nil {
			return err
		}
		f.emit(RInstr{Op: RLoadDeref, Dst: f.d - 1, A: f.d - 1, Pos: x.Pos}, 0)
		return nil
	}
	return fmt.Errorf("unknown expression %T", e)
}

// compileLValue emits code computing the cell address an assignable
// expression designates. The lvalue node itself is not step-charged
// (VM.lvalue has no step call); only subexpressions evaluated on the way are.
func (f *funcCompiler) compileLValue(e lang.Expr) error {
	switch x := e.(type) {
	case *lang.Ident:
		d := x.Decl
		switch {
		case d.IsArray && !d.Global:
			f.emit(RInstr{Op: RAddrLocalArr, Dst: f.d, A: int32(d.Slot), Pos: x.Pos}, 1)
		case d.Global:
			f.emit(RInstr{Op: RGlobalPtr, Dst: f.d, A: int32(d.Slot)}, 1)
		default:
			f.emit(RInstr{Op: RAddrLocal, Dst: f.d, A: int32(d.Slot)}, 1)
		}
		return nil
	case *lang.Index:
		if err := f.compileExpr(x.Base); err != nil {
			return err
		}
		if err := f.compileExpr(x.Idx); err != nil {
			return err
		}
		f.emit(RInstr{Op: RAddrIndex, Dst: f.d - 2, A: f.d - 2, B: f.d - 1, Pos: x.Pos}, -1)
		return nil
	case *lang.Deref:
		if err := f.compileExpr(x.X); err != nil {
			return err
		}
		f.emit(RInstr{Op: RAddrDeref, Dst: f.d - 1, A: f.d - 1, Pos: x.Pos}, 0)
		return nil
	}
	return fmt.Errorf("not an lvalue: %T", e)
}

// compileAssign emits an assignment. The assigned value stays in its
// register as the expression's value; a store through a computed address
// consumes the address register above it.
func (f *funcCompiler) compileAssign(x *lang.Assign) error {
	// Evaluation order matches VM.evalAssign: RHS first, then the lvalue.
	if err := f.compileExpr(x.RHS); err != nil {
		return err
	}
	if x.Op == lang.ASSIGN {
		if id, ok := x.LHS.(*lang.Ident); ok && !id.Decl.IsArray {
			op := RStoreLocal
			if id.Decl.Global {
				op = RStoreGlobal
			}
			f.emit(RInstr{Op: op, Dst: -1, A: int32(id.Decl.Slot), B: f.d - 1}, 0)
			return nil
		}
		if err := f.compileLValue(x.LHS); err != nil {
			return err
		}
		f.emit(RInstr{Op: RStoreCell, Dst: -1, A: f.d - 1, B: f.d - 2}, -1)
		return nil
	}
	op, err := vm.CompoundOp(x.Op)
	if err != nil {
		return err
	}
	if id, ok := x.LHS.(*lang.Ident); ok && !id.Decl.IsArray {
		rop := RStoreLocalOp
		if id.Decl.Global {
			rop = RStoreGlobalOp
		}
		f.emit(RInstr{Op: rop, Dst: f.d - 1, A: int32(id.Decl.Slot), B: f.d - 1, Kind: op, Pos: x.Pos}, 0)
		return nil
	}
	if err := f.compileLValue(x.LHS); err != nil {
		return err
	}
	f.emit(RInstr{Op: RStoreCellOp, Dst: f.d - 2, A: f.d - 1, B: f.d - 2, Kind: op, Pos: x.Pos}, -1)
	return nil
}
