package vm

import (
	"errors"
	"fmt"

	"pathlog/internal/lang"
	"pathlog/internal/oskernel"
	"pathlog/internal/sym"
)

// BranchSink observes every executed branch. Implementations include the
// branch logger (instrumented builds), the concolic labeler and the replay
// engine. A nil return continues in the direction the condition evaluated
// to (taken). ErrFollowLog continues in the other direction instead;
// ErrAbortRun stops the execution with Aborted status; any other error
// stops it with a VM error.
type BranchSink interface {
	OnBranch(site *lang.BranchSite, cond Value, taken bool) error
}

// ErrAbortRun is returned by a BranchSink to abandon the current run (replay
// case 3b in §3.1, or a log exhausted before the run ends).
var ErrAbortRun = errors.New("vm: run aborted by branch sink")

// ErrFollowLog is returned by a BranchSink to make the run take the other
// direction from the one the condition evaluated to: a replay whose
// recorded bit disagrees with the run (case 2b) follows the log past the
// divergence instead of aborting. The run's concrete state no longer
// agrees with its path condition from there on, so the sink must not treat
// such a run as a reproduction. Both engines honour it at every branch
// site, short-circuit decisions included.
var ErrFollowLog = errors.New("vm: run follows the log past a divergence")

// World supplies symbolic marking for program input. When nil, the VM runs
// fully concrete (the user-site configuration).
type World interface {
	// MarkByte returns the symbolic expression standing for the input byte
	// at (stream, off), or nil when that stream is concrete.
	MarkByte(stream string, off int64) sym.Expr
	// SyscallExpr returns the symbolic expression for the result of the
	// seq-th nondeterministic syscall of the given kind ("read" or
	// "select"), or nil when syscall results are concrete in this mode.
	SyscallExpr(kind string, seq int) sym.Expr
}

// CrashKind classifies abnormal terminations.
type CrashKind int

// Crash kinds.
const (
	CrashNone CrashKind = iota
	CrashExplicit
	CrashOOB
	CrashNullDeref
	CrashDivZero
	CrashStackOverflow
)

// String implements fmt.Stringer.
func (k CrashKind) String() string {
	return [...]string{"none", "crash()", "out-of-bounds", "null-deref",
		"div-by-zero", "stack-overflow"}[k]
}

// CrashInfo identifies where and why a run crashed. Pos is the bug site; two
// crashes match when Kind and Pos are equal — the analogue of the paper's
// "crashes at the same location in the code".
type CrashInfo struct {
	Kind CrashKind
	Pos  lang.Pos
	Code int64 // crash(code) argument
}

// Site returns a printable bug-site identifier.
func (c CrashInfo) Site() string { return fmt.Sprintf("%s@%s", c.Kind, c.Pos) }

// Result summarizes one execution.
type Result struct {
	Exit           int64
	Crashed        bool
	Crash          CrashInfo
	Aborted        bool // stopped by the branch sink
	BudgetExceeded bool
	Steps          int64
	BranchExecs    int64
	Stdout         []byte
}

// Options configure one VM instance.
type Options struct {
	// Kernel supplies syscalls. Required.
	Kernel *oskernel.Kernel
	// Sink observes branches; may be nil.
	Sink BranchSink
	// World marks input symbolic; may be nil for concrete runs.
	World World
	// MaxSteps bounds execution; 0 means DefaultMaxSteps.
	MaxSteps int64
}

// DefaultMaxSteps is the step budget of a run that sets none.
const DefaultMaxSteps = 50_000_000

// MaxDepth bounds recursion in every engine: a call deeper than this
// crashes the run as a stack overflow.
const MaxDepth = 4096

// VM executes one program against one kernel with a recursive tree walk over
// the AST. Create a fresh VM per run. It is the reference engine: the
// bytecode VM in internal/ir must match it bit for bit on trace output,
// syscall logs, crash sites and step counts.
type VM struct {
	prog *lang.Program
	opts Options
	host Host

	globals []*Object
	strings map[*lang.StrLit]*Object

	steps       int64
	maxSteps    int64
	branchExecs int64
	depth       int
}

// control is the statement-level control-flow signal.
type control int

const (
	ctlNone control = iota
	ctlBreak
	ctlContinue
	ctlReturn
)

// runError carries abnormal termination through the evaluator.
type runError struct {
	crash  *CrashInfo
	exit   *int64
	abort  bool
	budget bool
	err    error
}

// Error implements error.
func (e *runError) Error() string {
	switch {
	case e.crash != nil:
		return "crash: " + e.crash.Site()
	case e.exit != nil:
		return fmt.Sprintf("exit(%d)", *e.exit)
	case e.abort:
		return "aborted"
	case e.budget:
		return "step budget exceeded"
	}
	return e.err.Error()
}

// New creates a VM for the program with the given options.
func New(prog *lang.Program, opts Options) *VM {
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = DefaultMaxSteps
	}
	return &VM{
		prog:     prog,
		opts:     opts,
		host:     Host{Kernel: opts.Kernel, World: opts.World},
		strings:  make(map[*lang.StrLit]*Object),
		maxSteps: opts.MaxSteps,
	}
}

// Run executes the program's main function to completion.
func (m *VM) Run() (Result, error) {
	if err := m.initGlobals(); err != nil {
		return m.finish(err)
	}
	frame := NewObject("main.frame", int64(m.prog.Main.NumSlots))
	_, err := m.callFunc(m.prog.Main, frame)
	if err == nil {
		err = ExitError(0)
	}
	return m.finish(err)
}

func (m *VM) finish(err error) (Result, error) {
	return Finish(m.steps, m.branchExecs, m.opts.Kernel.Stdout(), err)
}

func (m *VM) initGlobals() error {
	m.globals = make([]*Object, len(m.prog.Globals))
	for i, g := range m.prog.Globals {
		size := int64(1)
		if g.IsArray {
			size = g.Size
		}
		m.globals[i] = NewObject(g.Name, size)
	}
	// Initializers run in declaration order with no frame; they may only
	// reference earlier globals and constants.
	for i, g := range m.prog.Globals {
		if g.Init == nil {
			continue
		}
		v, err := m.eval(nil, g.Init)
		if err != nil {
			return err
		}
		m.globals[i].Cells[0] = v
	}
	return nil
}

func (m *VM) step(pos lang.Pos) error {
	m.steps++
	if m.steps > m.maxSteps {
		return &runError{budget: true}
	}
	return nil
}

func (m *VM) crash(kind CrashKind, pos lang.Pos, code int64) error {
	return CrashError(kind, pos, code)
}

// callFunc executes fn with an initialized frame and returns its value.
func (m *VM) callFunc(fn *lang.FuncDecl, frame *Object) (Value, error) {
	m.depth++
	if m.depth > MaxDepth {
		m.depth--
		return Value{}, m.crash(CrashStackOverflow, fn.Pos, 0)
	}
	defer func() { m.depth-- }()

	ret, ctl, err := m.execStmt(frame, fn.Body)
	if err != nil {
		return Value{}, err
	}
	if ctl == ctlReturn {
		return ret, nil
	}
	return IntValue(0), nil
}

// execStmt executes one statement; when ctl is ctlReturn, ret carries the
// return value.
func (m *VM) execStmt(frame *Object, s lang.Stmt) (ret Value, ctl control, err error) {
	if err := m.step(s.StmtPos()); err != nil {
		return Value{}, ctlNone, err
	}
	switch st := s.(type) {
	case *lang.Block:
		for _, inner := range st.Stmts {
			ret, ctl, err = m.execStmt(frame, inner)
			if err != nil || ctl != ctlNone {
				return ret, ctl, err
			}
		}
		return Value{}, ctlNone, nil

	case *lang.DeclStmt:
		d := st.Decl
		if d.IsArray {
			frame.Cells[d.Slot] = PtrValue(NewObject(d.Name, d.Size), 0)
			return Value{}, ctlNone, nil
		}
		var v Value
		if d.Init != nil {
			v, err = m.eval(frame, d.Init)
			if err != nil {
				return Value{}, ctlNone, err
			}
		} else {
			v = IntValue(0)
		}
		frame.Cells[d.Slot] = v
		return Value{}, ctlNone, nil

	case *lang.ExprStmt:
		_, err = m.eval(frame, st.E)
		return Value{}, ctlNone, err

	case *lang.Return:
		if st.E != nil {
			v, err := m.eval(frame, st.E)
			if err != nil {
				return Value{}, ctlNone, err
			}
			return v, ctlReturn, nil
		}
		return IntValue(0), ctlReturn, nil

	case *lang.Break:
		return Value{}, ctlBreak, nil

	case *lang.Continue:
		return Value{}, ctlContinue, nil

	case *lang.If:
		cond, err := m.eval(frame, st.Cond)
		if err != nil {
			return Value{}, ctlNone, err
		}
		taken, err := m.branch(st.Branch, cond, cond.Truthy())
		if err != nil {
			return Value{}, ctlNone, err
		}
		if taken {
			return m.execStmt(frame, st.Then)
		}
		if st.Else != nil {
			return m.execStmt(frame, st.Else)
		}
		return Value{}, ctlNone, nil

	case *lang.While:
		for {
			cond, err := m.eval(frame, st.Cond)
			if err != nil {
				return Value{}, ctlNone, err
			}
			taken, err := m.branch(st.Branch, cond, cond.Truthy())
			if err != nil {
				return Value{}, ctlNone, err
			}
			if !taken {
				return Value{}, ctlNone, nil
			}
			ret, ctl, err = m.execStmt(frame, st.Body)
			if err != nil {
				return Value{}, ctlNone, err
			}
			if ctl == ctlReturn {
				return ret, ctl, nil
			}
			if ctl == ctlBreak {
				return Value{}, ctlNone, nil
			}
		}

	case *lang.For:
		if st.Init != nil {
			if _, _, err := m.execStmt(frame, st.Init); err != nil {
				return Value{}, ctlNone, err
			}
		}
		for {
			if st.Cond != nil {
				cond, err := m.eval(frame, st.Cond)
				if err != nil {
					return Value{}, ctlNone, err
				}
				taken, err := m.branch(st.Branch, cond, cond.Truthy())
				if err != nil {
					return Value{}, ctlNone, err
				}
				if !taken {
					return Value{}, ctlNone, nil
				}
			}
			ret, ctl, err = m.execStmt(frame, st.Body)
			if err != nil {
				return Value{}, ctlNone, err
			}
			if ctl == ctlReturn {
				return ret, ctl, nil
			}
			if ctl == ctlBreak {
				return Value{}, ctlNone, nil
			}
			if st.Post != nil {
				if _, _, err := m.execStmt(frame, st.Post); err != nil {
					return Value{}, ctlNone, err
				}
			}
		}
	}
	return Value{}, ctlNone, fmt.Errorf("vm: unknown statement %T", s)
}

// branch reports one branch execution to the sink and returns the
// direction to take: taken, or its opposite when the sink answers
// ErrFollowLog.
func (m *VM) branch(site *lang.BranchSite, cond Value, taken bool) (bool, error) {
	m.branchExecs++
	if m.opts.Sink == nil {
		return taken, nil
	}
	if err := m.opts.Sink.OnBranch(site, cond, taken); err != nil {
		if err == ErrFollowLog {
			return !taken, nil
		}
		return taken, SinkError(err)
	}
	return taken, nil
}

// eval evaluates an expression.
func (m *VM) eval(frame *Object, e lang.Expr) (Value, error) {
	if err := m.step(e.ExprPos()); err != nil {
		return Value{}, err
	}
	switch x := e.(type) {
	case *lang.IntLit:
		return IntValue(x.V), nil

	case *lang.StrLit:
		return PtrValue(m.internString(x), 0), nil

	case *lang.Ident:
		return m.evalIdentValue(frame, x), nil

	case *lang.Unary:
		v, err := m.eval(frame, x.X)
		if err != nil {
			return Value{}, err
		}
		return UnaryOp(x.Op, v, x.Pos)

	case *lang.Binary:
		l, err := m.eval(frame, x.L)
		if err != nil {
			return Value{}, err
		}
		r, err := m.eval(frame, x.R)
		if err != nil {
			return Value{}, err
		}
		return BinOp(x.Op, l, r, x.Pos)

	case *lang.Logic:
		return m.evalLogic(frame, x)

	case *lang.Assign:
		return m.evalAssign(frame, x)

	case *lang.IncDec:
		obj, off, err := m.lvalue(frame, x.X)
		if err != nil {
			return Value{}, err
		}
		old := obj.Cells[off]
		delta := int64(1)
		op := sym.OpAdd
		if x.Op == lang.MINUSMIN {
			delta = -1
			op = sym.OpSub
		}
		var nv Value
		if old.K == KPtr {
			nv = PtrValue(old.Obj, old.Off+delta)
		} else {
			var se sym.Expr
			if old.Sym != nil {
				se = sym.NewBin(op, old.Sym, sym.One)
			}
			nv = SymValue(old.I+delta, se)
		}
		obj.Cells[off] = nv
		return old, nil

	case *lang.Call:
		return m.evalCall(frame, x)

	case *lang.Index:
		base, err := m.eval(frame, x.Base)
		if err != nil {
			return Value{}, err
		}
		idx, err := m.eval(frame, x.Idx)
		if err != nil {
			return Value{}, err
		}
		obj, off, err := IndexCell(base, idx, x.Pos)
		if err != nil {
			return Value{}, err
		}
		return obj.Cells[off], nil

	case *lang.AddrOf:
		obj, off, err := m.lvalue(frame, x.X)
		if err != nil {
			return Value{}, err
		}
		return PtrValue(obj, off), nil

	case *lang.Deref:
		v, err := m.eval(frame, x.X)
		if err != nil {
			return Value{}, err
		}
		if v.K != KPtr || v.Obj == nil {
			return Value{}, m.crash(CrashNullDeref, x.Pos, 0)
		}
		if !v.Obj.In(v.Off) {
			return Value{}, m.crash(CrashOOB, x.Pos, 0)
		}
		return v.Obj.Cells[v.Off], nil
	}
	return Value{}, fmt.Errorf("vm: unknown expression %T", e)
}

// evalIdentValue reads an identifier's value, decaying array names to
// pointers to their first cell.
func (m *VM) evalIdentValue(frame *Object, id *lang.Ident) Value {
	d := id.Decl
	if d.Global {
		obj := m.globals[d.Slot]
		if d.IsArray {
			return PtrValue(obj, 0)
		}
		return obj.Cells[0]
	}
	return frame.Cells[d.Slot]
}

func (m *VM) internString(s *lang.StrLit) *Object {
	if o, ok := m.strings[s]; ok {
		return o
	}
	o := NewObject("str", int64(len(s.S))+1)
	o.StoreBytes(0, []byte(s.S))
	m.strings[s] = o
	return o
}

// lvalue resolves an assignable expression to (object, offset).
func (m *VM) lvalue(frame *Object, e lang.Expr) (*Object, int64, error) {
	switch x := e.(type) {
	case *lang.Ident:
		d := x.Decl
		if d.IsArray {
			// &arr[0] via AddrOf(Ident) on an array name.
			if d.Global {
				return m.globals[d.Slot], 0, nil
			}
			av := frame.Cells[d.Slot]
			if av.K != KPtr || av.Obj == nil {
				return nil, 0, m.crash(CrashNullDeref, x.Pos, 0)
			}
			return av.Obj, av.Off, nil
		}
		if d.Global {
			return m.globals[d.Slot], 0, nil
		}
		return frame, int64(d.Slot), nil
	case *lang.Index:
		base, err := m.eval(frame, x.Base)
		if err != nil {
			return nil, 0, err
		}
		idx, err := m.eval(frame, x.Idx)
		if err != nil {
			return nil, 0, err
		}
		return IndexCell(base, idx, x.Pos)
	case *lang.Deref:
		v, err := m.eval(frame, x.X)
		if err != nil {
			return nil, 0, err
		}
		if v.K != KPtr || v.Obj == nil {
			return nil, 0, m.crash(CrashNullDeref, x.Pos, 0)
		}
		if !v.Obj.In(v.Off) {
			return nil, 0, m.crash(CrashOOB, x.Pos, 0)
		}
		return v.Obj, v.Off, nil
	}
	return nil, 0, fmt.Errorf("vm: not an lvalue: %T", e)
}

func (m *VM) evalLogic(frame *Object, x *lang.Logic) (Value, error) {
	l, err := m.eval(frame, x.L)
	if err != nil {
		return Value{}, err
	}
	// The short-circuit decision is itself a branch location.
	lTrue, err := m.branch(x.Branch, l, l.Truthy())
	if err != nil {
		return Value{}, err
	}
	if x.Op == lang.ANDAND {
		if !lTrue {
			return SymValue(0, BoolExpr(l)), nil
		}
		r, err := m.eval(frame, x.R)
		if err != nil {
			return Value{}, err
		}
		return BoolValue(r), nil
	}
	// OROR.
	if lTrue {
		return SymValue(1, BoolExpr(l)), nil
	}
	r, err := m.eval(frame, x.R)
	if err != nil {
		return Value{}, err
	}
	return BoolValue(r), nil
}

func (m *VM) evalAssign(frame *Object, x *lang.Assign) (Value, error) {
	rhs, err := m.eval(frame, x.RHS)
	if err != nil {
		return Value{}, err
	}
	obj, off, err := m.lvalue(frame, x.LHS)
	if err != nil {
		return Value{}, err
	}
	if x.Op == lang.ASSIGN {
		obj.Cells[off] = rhs
		return rhs, nil
	}
	old := obj.Cells[off]
	op, err := CompoundOp(x.Op)
	if err != nil {
		return Value{}, err
	}
	nv, err := BinOp(op, old, rhs, x.Pos)
	if err != nil {
		return Value{}, err
	}
	obj.Cells[off] = nv
	return nv, nil
}

// CompoundOp maps a compound-assignment token to its binary operator.
func CompoundOp(tok lang.Kind) (lang.Kind, error) {
	switch tok {
	case lang.PLUSEQ:
		return lang.PLUS, nil
	case lang.MINUSEQ:
		return lang.MINUS, nil
	case lang.STAREQ:
		return lang.STAR, nil
	case lang.SLASHEQ:
		return lang.SLASH, nil
	case lang.PCTEQ:
		return lang.PERCENT, nil
	}
	return 0, fmt.Errorf("vm: bad compound assign %v", tok)
}
