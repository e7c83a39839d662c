package ir

import (
	"pathlog/internal/lang"
)

// Op is a bytecode opcode.
type Op uint8

// Opcodes. Stack effects are written [pops] -> [pushes]; "peek" leaves the
// operand in place. A, B, Val, Kind, Pos, Site, Fn and Name are the operand
// fields of Instr; which ones an opcode uses is noted per opcode.
const (
	// OpNop does nothing; it exists to carry Steps charges on control-flow
	// edges (loop entries, branch joins) where no other instruction would
	// absorb them.
	OpNop Op = iota
	// OpConst pushes the integer literal Val.
	OpConst
	// OpStr pushes a pointer to interned string-pool entry A (lazily
	// allocated per run, in first-execution order, like the tree walker).
	OpStr
	// OpLoadLocal pushes frame slot A.
	OpLoadLocal
	// OpLoadGlobal pushes the scalar value of global A.
	OpLoadGlobal
	// OpGlobalPtr pushes a pointer to cell 0 of global A (array decay and
	// global lvalues).
	OpGlobalPtr
	// OpAddrLocal pushes a pointer to frame slot A (&x on a local scalar).
	OpAddrLocal
	// OpAddrLocalArr pushes the cell a local array name A designates as an
	// lvalue: the array pointer held in the slot, null-checked at Pos.
	OpAddrLocalArr
	// OpAddrIndex pops idx and base, bounds-checks base[idx] at Pos, and
	// pushes the cell address.
	OpAddrIndex
	// OpAddrDeref pops a pointer, checks it at Pos, and pushes the cell
	// address.
	OpAddrDeref
	// OpLoadIndex pops idx and base and pushes base[idx] (checked at Pos).
	OpLoadIndex
	// OpLoadDeref pops a pointer and pushes *p (checked at Pos).
	OpLoadDeref
	// OpStoreLocal stores the top of stack (peek) into frame slot A.
	OpStoreLocal
	// OpStoreGlobal stores the top of stack (peek) into global scalar A.
	OpStoreGlobal
	// OpStoreCell pops a cell address and stores the new top (peek) into it.
	OpStoreCell
	// OpStoreLocalOp applies compound assignment `slot A Kind= top`: replaces
	// the top with BinOp(Kind, old, top) evaluated at Pos and stores it.
	OpStoreLocalOp
	// OpStoreGlobalOp is OpStoreLocalOp for global scalar A.
	OpStoreGlobalOp
	// OpStoreCellOp pops a cell address and applies compound assignment to
	// it with the new top (replaced by the result).
	OpStoreCellOp
	// OpSetLocal pops the top into frame slot A (declaration initializers).
	OpSetLocal
	// OpSetGlobal pops the top into global scalar A (global init code).
	OpSetGlobal
	// OpZeroLocal stores integer 0 into frame slot A.
	OpZeroLocal
	// OpAllocArr allocates a Val-cell object named Name and stores a pointer
	// to it into frame slot A (local array declaration).
	OpAllocArr
	// OpIncLocal pushes the old value of frame slot A and adds Val (±1) to
	// it, with the tree walker's pointer and symbolic rules.
	OpIncLocal
	// OpIncCell pops a cell address, pushes the old cell value and adds Val.
	OpIncCell
	// OpUnary pops v and pushes UnaryOp(Kind, v) evaluated at Pos.
	OpUnary
	// OpBinary pops r then l and pushes BinOp(Kind, l, r) evaluated at Pos.
	OpBinary
	// OpBool pops v and pushes its 0/1 coercion (logic-expression result).
	OpBool
	// OpShortCircuit pops the left operand of Site's && / || (Kind), reports
	// the branch event, and either falls through into the right-operand code
	// or pushes the short-circuit result and jumps to A.
	OpShortCircuit
	// OpBranch pops the condition of Site, reports the branch event, and
	// jumps to A when taken, B when not.
	OpBranch
	// OpJump jumps to A.
	OpJump
	// OpPop discards the top of stack (expression statements).
	OpPop
	// OpCall pops B arguments, allocates Fn's frame, and transfers control
	// to it (stack-overflow-checked).
	OpCall
	// OpCallB pops B arguments and invokes builtin Name at Pos.
	OpCallB
	// OpRet pops the return value and returns to the caller; returning from
	// main ends the run with exit(0).
	OpRet
	// OpRetZero is OpRet with an implicit integer 0 return value (bare
	// `return;` and function-end fall-through).
	OpRetZero
)

var opNames = [...]string{
	OpNop: "nop", OpConst: "const", OpStr: "str",
	OpLoadLocal: "loadl", OpLoadGlobal: "loadg", OpGlobalPtr: "gptr",
	OpAddrLocal: "addrl", OpAddrLocalArr: "addrla", OpAddrIndex: "addridx",
	OpAddrDeref: "addrderef", OpLoadIndex: "loadidx", OpLoadDeref: "loadderef",
	OpStoreLocal: "storel", OpStoreGlobal: "storeg", OpStoreCell: "storec",
	OpStoreLocalOp: "storelop", OpStoreGlobalOp: "storegop", OpStoreCellOp: "storecop",
	OpSetLocal: "setl", OpSetGlobal: "setg", OpZeroLocal: "zerol",
	OpAllocArr: "allocarr", OpIncLocal: "incl", OpIncCell: "incc",
	OpUnary: "unary", OpBinary: "binary", OpBool: "bool",
	OpShortCircuit: "shortcirc", OpBranch: "branch", OpJump: "jump",
	OpPop: "pop", OpCall: "call", OpCallB: "callb",
	OpRet: "ret", OpRetZero: "ret0",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "op?"
}

// Instr is one flat bytecode instruction.
type Instr struct {
	Op Op
	// Steps is the number of tree-walker step charges that precede this
	// instruction's effects; the VM applies them (with the budget check)
	// before executing the instruction.
	Steps int32
	// A and B are slot numbers, pool indexes, argument counts or jump
	// targets, per opcode.
	A, B int32
	// Val is an integer literal, array size, or ±1 increment delta.
	Val int64
	// Kind is the operator token for unary/binary/compound/short-circuit ops.
	Kind lang.Kind
	// Pos is the source position used for crash attribution.
	Pos lang.Pos
	// Site is the branch site of OpBranch/OpShortCircuit.
	Site *lang.BranchSite
	// Fn is the callee of OpCall.
	Fn *FuncCode
	// Name is the builtin name of OpCallB or the object name of OpAllocArr.
	Name string
}

// FuncCode is the compiled body of one function.
type FuncCode struct {
	// Decl is the source declaration.
	Decl *lang.FuncDecl
	// FrameName is Decl.Name + ".frame", precomputed so frame allocation
	// matches the tree walker's object naming without per-call formatting.
	FrameName string
	// Code is the flat stack-form instruction array the compiler emits; it
	// carries the tree walker's step-charge schedule and is the input to
	// register lowering. Entry is index 0 and every path ends in
	// OpRet/OpRetZero.
	Code []Instr
	// RCode is the fused register-form code the VM executes, lowered from
	// Code (lower.go, fuse.go).
	RCode []RInstr
	// NumRegs is the number of virtual registers RCode needs.
	NumRegs int
}

// Program is one compiled program: the bytecode of every function plus the
// constant pools shared by all runs.
type Program struct {
	// Src is the source program (globals table, branch sites, functions).
	Src *lang.Program
	// Funcs holds the compiled functions in lang.Program.FuncList order.
	Funcs []*FuncCode
	// Main is the entry function's code.
	Main *FuncCode
	// Init is the global-initializer code, run once before main with no
	// frame; it ends by falling off the end of the array.
	Init []Instr
	// RInit is the register form of Init, with InitRegs virtual registers.
	RInit []RInstr
	// InitRegs is the register count of RInit.
	InitRegs int
	// Strings is the string constant pool; OpStr.A indexes it. One entry per
	// string-literal site, in source order, matching the tree walker's
	// per-site interning.
	Strings []string
}
