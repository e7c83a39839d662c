package ir

import (
	"fmt"

	"pathlog/internal/lang"
	"pathlog/internal/sym"
	"pathlog/internal/vm"
)

// machine executes one compiled program's register code in a dispatch loop.
// Create one per run (Engine does). All value, operator, builtin and
// termination semantics are shared with the tree walker through internal/vm,
// which is what keeps the two engines bit-for-bit interchangeable.
type machine struct {
	prog *Program
	opts vm.Options
	host vm.Host

	globals []*vm.Object
	strings []*vm.Object // lazily interned, indexed by string-pool slot
	arena   *vm.ObjectArena
	rf      []vm.Value // register file; each live call owns a window

	steps       int64
	maxSteps    int64
	branchExecs int64
	depth       int
}

// newMachine builds a machine for one run, applying the same option defaults
// as vm.New.
func newMachine(p *Program, opts vm.Options) *machine {
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = vm.DefaultMaxSteps
	}
	return &machine{
		prog:     p,
		opts:     opts,
		host:     vm.Host{Kernel: opts.Kernel, World: opts.World},
		maxSteps: opts.MaxSteps,
	}
}

// Run implements vm.Machine.
func (m *machine) Run() (vm.Result, error) {
	// Objects live exactly as long as the run: nothing downstream retains
	// them (sinks keep sym.Expr constraints, the kernel exchanges bytes,
	// results carry scalars), so the arena is released once the result is
	// assembled and its slabs are recycled for the next run.
	m.arena = vm.GetArena()
	err := m.run()
	res, ferr := vm.Finish(m.steps, m.branchExecs, m.opts.Kernel.Stdout(), err)
	a := m.arena
	m.arena, m.globals, m.strings, m.rf = nil, nil, nil, nil
	a.Release()
	return res, ferr
}

// rfSeed is the initial register-file capacity; it covers the whole call
// tree of typical programs, so growRF is the rare path.
const rfSeed = 256

func (m *machine) run() error {
	src := m.prog.Src
	m.globals = make([]*vm.Object, len(src.Globals))
	for i, g := range src.Globals {
		size := int64(1)
		if g.IsArray {
			size = g.Size
		}
		m.globals[i] = m.arena.NewObject(g.Name, size)
	}
	m.strings = make([]*vm.Object, len(m.prog.Strings))
	m.rf = m.arena.Scratch(rfSeed)[0:rfSeed:rfSeed]
	if len(m.prog.RInit) > 0 {
		if err := m.exec(m.prog.RInit, nil, m.prog.InitRegs); err != nil {
			return err
		}
	}
	main := m.prog.Main
	frame := m.arena.NewObject(main.FrameName, int64(main.Decl.NumSlots))
	m.depth++
	if m.depth > vm.MaxDepth {
		return vm.CrashError(vm.CrashStackOverflow, main.Decl.Pos, 0)
	}
	return m.exec(main.RCode, frame, main.NumRegs)
}

// growRF reallocates the register file to hold at least n values, preserving
// every live call window.
func (m *machine) growRF(n int) {
	nn := len(m.rf) * 2
	if nn < n {
		nn = n
	}
	nrf := make([]vm.Value, nn)
	copy(nrf, m.rf)
	m.rf = nrf
}

// callFrame is a suspended caller.
type callFrame struct {
	code  []RInstr
	frame *vm.Object
	pc    int32
	base  int32 // caller's register window start in m.rf
	nregs int32 // caller's register window size
	dst   int32 // register receiving the return value; -1 discards it
}

// fetch resolves one moded operand. Every mode is pure: no crash, no
// observation, no step charge (fusion legality depends on this).
func (m *machine) fetch(mode SrcMode, x int32, regs []vm.Value, frame *vm.Object) vm.Value {
	switch mode {
	case SrcReg:
		return regs[x]
	case SrcLocal:
		return frame.Cells[x]
	case SrcGlobal:
		return m.globals[x].Cells[0]
	case SrcConst:
		return vm.IntValue(int64(x))
	case SrcGPtr:
		return vm.PtrValue(m.globals[x], 0)
	default: // SrcLAddr
		return vm.PtrValue(frame, int64(x))
	}
}

// exec runs register code to termination. Function code always terminates
// through RRet/RRetZero (returning from the entry function ends the run as
// exit(0), like the tree walker's Run); the global init code instead falls
// off the end of its instruction array and returns nil.
func (m *machine) exec(code []RInstr, frame *vm.Object, nregs int) error {
	var (
		pc    int
		base  int32 // this call's register window start in m.rf
		calls []callFrame
	)
	if nregs > len(m.rf) {
		m.growRF(nregs)
	}
	regs := m.rf[:nregs]
	for {
		if pc >= len(code) {
			if len(calls) != 0 {
				return fmt.Errorf("ir: fell off code end with %d frames live", len(calls))
			}
			return nil // init code completes by falling off the end
		}
		in := &code[pc]
		pc++
		if in.Steps != 0 {
			// The same pre-order charges the tree walker applies, batched
			// (over both an instruction's subtree prefix and its fused
			// constituents). The walker trips the budget at the single step
			// that crosses it, so a batch that crosses clamps to maxSteps+1
			// with none of this instruction's effects applied.
			s := m.steps + int64(in.Steps)
			if s > m.maxSteps {
				m.steps = m.maxSteps + 1
				return vm.BudgetError()
			}
			m.steps = s
		}
		switch in.Op {
		case RNop:

		case RConst:
			regs[in.Dst] = vm.IntValue(in.Val)

		case RStr:
			o := m.strings[in.A]
			if o == nil {
				s := m.prog.Strings[in.A]
				o = m.arena.NewObject("str", int64(len(s))+1)
				o.StoreBytes(0, []byte(s))
				m.strings[in.A] = o
			}
			regs[in.Dst] = vm.PtrValue(o, 0)

		case RLoadLocal:
			regs[in.Dst] = frame.Cells[in.A]

		case RLoadGlobal:
			regs[in.Dst] = m.globals[in.A].Cells[0]

		case RGlobalPtr:
			regs[in.Dst] = vm.PtrValue(m.globals[in.A], 0)

		case RAddrLocal:
			regs[in.Dst] = vm.PtrValue(frame, int64(in.A))

		case RAddrLocalArr:
			av := frame.Cells[in.A]
			if av.K != vm.KPtr || av.Obj == nil {
				return vm.CrashError(vm.CrashNullDeref, in.Pos, 0)
			}
			regs[in.Dst] = vm.PtrValue(av.Obj, av.Off)

		case RAddrIndex:
			obj, off, err := vm.IndexCell(m.fetch(in.AM, in.A, regs, frame), m.fetch(in.BM, in.B, regs, frame), in.Pos)
			if err != nil {
				return err
			}
			regs[in.Dst] = vm.PtrValue(obj, off)

		case RAddrDeref:
			v := regs[in.A]
			if v.K != vm.KPtr || v.Obj == nil {
				return vm.CrashError(vm.CrashNullDeref, in.Pos, 0)
			}
			if !v.Obj.In(v.Off) {
				return vm.CrashError(vm.CrashOOB, in.Pos, 0)
			}
			regs[in.Dst] = vm.PtrValue(v.Obj, v.Off)

		case RLoadIndex:
			obj, off, err := vm.IndexCell(m.fetch(in.AM, in.A, regs, frame), m.fetch(in.BM, in.B, regs, frame), in.Pos)
			if err != nil {
				return err
			}
			regs[in.Dst] = obj.Cells[off]

		case RLoadDeref:
			v := regs[in.A]
			if v.K != vm.KPtr || v.Obj == nil {
				return vm.CrashError(vm.CrashNullDeref, in.Pos, 0)
			}
			if !v.Obj.In(v.Off) {
				return vm.CrashError(vm.CrashOOB, in.Pos, 0)
			}
			regs[in.Dst] = v.Obj.Cells[v.Off]

		case RStoreLocal:
			frame.Cells[in.A] = m.fetch(in.BM, in.B, regs, frame)

		case RStoreGlobal:
			m.globals[in.A].Cells[0] = m.fetch(in.BM, in.B, regs, frame)

		case RStoreCell:
			addr := regs[in.A]
			addr.Obj.Cells[addr.Off] = m.fetch(in.BM, in.B, regs, frame)

		case RStoreLocalOp:
			nv, err := vm.BinOp(in.Kind, frame.Cells[in.A], m.fetch(in.BM, in.B, regs, frame), in.Pos)
			if err != nil {
				return err
			}
			frame.Cells[in.A] = nv
			if in.Dst >= 0 {
				regs[in.Dst] = nv
			}

		case RStoreGlobalOp:
			g := m.globals[in.A]
			nv, err := vm.BinOp(in.Kind, g.Cells[0], m.fetch(in.BM, in.B, regs, frame), in.Pos)
			if err != nil {
				return err
			}
			g.Cells[0] = nv
			if in.Dst >= 0 {
				regs[in.Dst] = nv
			}

		case RStoreCellOp:
			addr := regs[in.A]
			nv, err := vm.BinOp(in.Kind, addr.Obj.Cells[addr.Off], m.fetch(in.BM, in.B, regs, frame), in.Pos)
			if err != nil {
				return err
			}
			addr.Obj.Cells[addr.Off] = nv
			if in.Dst >= 0 {
				regs[in.Dst] = nv
			}

		case RZeroLocal:
			frame.Cells[in.A] = vm.IntValue(0)

		case RAllocArr:
			frame.Cells[in.A] = vm.PtrValue(m.arena.NewObject(in.Name, in.Val), 0)

		case RIncLocal:
			old := frame.Cells[in.A]
			frame.Cells[in.A] = incValue(old, in.Val)
			if in.Dst >= 0 {
				regs[in.Dst] = old
			}

		case RIncCell:
			addr := regs[in.A]
			old := addr.Obj.Cells[addr.Off]
			addr.Obj.Cells[addr.Off] = incValue(old, in.Val)
			if in.Dst >= 0 {
				regs[in.Dst] = old
			}

		case RIncIndex:
			obj, off, err := vm.IndexCell(m.fetch(in.AM, in.A, regs, frame), m.fetch(in.BM, in.B, regs, frame), in.Pos)
			if err != nil {
				return err
			}
			old := obj.Cells[off]
			obj.Cells[off] = incValue(old, in.Val)
			if in.Dst >= 0 {
				regs[in.Dst] = old
			}

		case RUnary:
			v, err := vm.UnaryOp(in.Kind, m.fetch(in.AM, in.A, regs, frame), in.Pos)
			if err != nil {
				return err
			}
			regs[in.Dst] = v

		case RBinary:
			l := m.fetch(in.AM, in.A, regs, frame)
			r := m.fetch(in.BM, in.B, regs, frame)
			if l.K == vm.KInt && l.Sym == nil && r.K == vm.KInt && r.Sym == nil {
				// All-concrete fast path; div-by-zero and unknown kinds
				// decline and take the full BinOp crash/error path below.
				if cv, ok := vm.ConcreteBin(in.Kind, l.I, r.I); ok {
					regs[in.Dst] = vm.IntValue(cv)
					break
				}
			}
			v, err := vm.BinOp(in.Kind, l, r, in.Pos)
			if err != nil {
				return err
			}
			regs[in.Dst] = v

		case RBinStoreLocal:
			v, err := m.binValue(in, regs, frame)
			if err != nil {
				return err
			}
			frame.Cells[in.C] = v
			regs[in.Dst] = v

		case RBinStoreGlobal:
			v, err := m.binValue(in, regs, frame)
			if err != nil {
				return err
			}
			m.globals[in.C].Cells[0] = v
			regs[in.Dst] = v

		case RStoreIndex:
			obj, off, err := vm.IndexCell(m.fetch(in.AM, in.A, regs, frame), m.fetch(in.BM, in.B, regs, frame), in.Pos)
			if err != nil {
				return err
			}
			obj.Cells[off] = m.fetch(in.CM, in.C, regs, frame)

		case RBool:
			regs[in.Dst] = vm.BoolValue(m.fetch(in.AM, in.A, regs, frame))

		case RShortCircuit:
			l := m.fetch(in.AM, in.A, regs, frame)
			lTrue, err := m.branch(in.Site, l, l.Truthy())
			if err != nil {
				return err
			}
			if in.Kind == lang.ANDAND {
				if !lTrue {
					regs[in.Dst] = vm.SymValue(0, vm.BoolExpr(l))
					pc = int(in.C)
				}
			} else if lTrue {
				regs[in.Dst] = vm.SymValue(1, vm.BoolExpr(l))
				pc = int(in.C)
			}

		case RBranch:
			cond := m.fetch(in.AM, in.A, regs, frame)
			taken, err := m.branch(in.Site, cond, cond.Truthy())
			if err != nil {
				return err
			}
			if taken {
				pc = int(in.B)
			} else {
				pc = int(in.C)
			}

		case RCmpBranch:
			cond, err := m.binValue(in, regs, frame)
			if err != nil {
				return err
			}
			taken, err := m.branch(in.Site, cond, cond.Truthy())
			if err != nil {
				return err
			}
			if taken {
				pc = int(in.C)
			} else {
				pc = int(in.Val)
			}

		case RJump:
			pc = int(in.A)

		case RCall:
			fn := in.Fn
			callee := m.arena.NewObject(fn.FrameName, int64(fn.Decl.NumSlots))
			copy(callee.Cells, regs[in.A:in.A+in.B])
			m.depth++
			if m.depth > vm.MaxDepth {
				return vm.CrashError(vm.CrashStackOverflow, fn.Decl.Pos, 0)
			}
			calls = append(calls, callFrame{
				code: code, frame: frame, pc: int32(pc),
				base: base, nregs: int32(len(regs)), dst: in.Dst,
			})
			base += int32(len(regs))
			if int(base)+fn.NumRegs > len(m.rf) {
				m.growRF(int(base) + fn.NumRegs)
			}
			code, pc, frame = fn.RCode, 0, callee
			regs = m.rf[base : int(base)+fn.NumRegs]

		case RCallB:
			v, err := m.host.Call(in.Name, in.Pos, regs[in.A:in.A+in.B])
			if err != nil {
				return err
			}
			regs[in.Dst] = v

		case RRet, RRetZero:
			v := vm.IntValue(0)
			if in.Op == RRet {
				v = m.fetch(in.AM, in.A, regs, frame)
			}
			m.depth--
			if len(calls) == 0 {
				// Returning from the entry function: the program's return
				// value is discarded and the run exits 0, as in VM.Run.
				return vm.ExitError(0)
			}
			cf := calls[len(calls)-1]
			calls = calls[:len(calls)-1]
			code, pc, frame, base = cf.code, int(cf.pc), cf.frame, cf.base
			regs = m.rf[base : base+cf.nregs]
			if cf.dst >= 0 {
				regs[cf.dst] = v
			}

		default:
			return fmt.Errorf("ir: unknown opcode %v", in.Op)
		}
	}
}

// binValue evaluates the binary-operator half of RBinary-derived fused
// instructions, with the same all-concrete fast path as RBinary.
func (m *machine) binValue(in *RInstr, regs []vm.Value, frame *vm.Object) (vm.Value, error) {
	l := m.fetch(in.AM, in.A, regs, frame)
	r := m.fetch(in.BM, in.B, regs, frame)
	if l.K == vm.KInt && l.Sym == nil && r.K == vm.KInt && r.Sym == nil {
		if cv, ok := vm.ConcreteBin(in.Kind, l.I, r.I); ok {
			return vm.IntValue(cv), nil
		}
	}
	return vm.BinOp(in.Kind, l, r, in.Pos)
}

// incValue applies x++/x-- to a cell value with the tree walker's rules:
// pointers move by delta cells; integers add delta, extending the symbolic
// expression only when one is present.
func incValue(old vm.Value, delta int64) vm.Value {
	if old.K == vm.KPtr {
		return vm.PtrValue(old.Obj, old.Off+delta)
	}
	var se sym.Expr
	if old.Sym != nil {
		op := sym.OpAdd
		if delta < 0 {
			op = sym.OpSub
		}
		se = sym.NewBin(op, old.Sym, sym.One)
	}
	return vm.SymValue(old.I+delta, se)
}

// branch reports one branch execution to the sink and returns the
// direction to take, as VM.branch does.
func (m *machine) branch(site *lang.BranchSite, cond vm.Value, taken bool) (bool, error) {
	m.branchExecs++
	if m.opts.Sink == nil {
		return taken, nil
	}
	if err := m.opts.Sink.OnBranch(site, cond, taken); err != nil {
		if err == vm.ErrFollowLog {
			return !taken, nil
		}
		return taken, vm.SinkError(err)
	}
	return taken, nil
}
