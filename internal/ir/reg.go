package ir

import (
	"pathlog/internal/lang"
)

// This file defines the register IR, the one instruction form of this
// package. The compiler (compile.go) emits it directly, carrying the tree
// walker's step-charge schedule and giving the value computed at operand
// depth d virtual register d; fuse.go then collapses hot instruction
// pairs/triples into superinstructions whose Steps charge is the sum of their
// parts, and the VM (exec.go) executes the result.

// ROp is a register-form opcode.
type ROp uint8

// Register opcodes. Operand fields are noted per opcode; `src(AM,A)` means
// the value selected by mode AM and index A (see SrcMode). Dst < 0 means the
// result value is discarded (dead-value elimination).
const (
	// RNop does nothing; it carries Steps charges on control-flow edges
	// where no other instruction can absorb them without changing the tree
	// walker's charge schedule.
	RNop ROp = iota
	// RConst sets Dst = integer literal Val.
	RConst
	// RStr sets Dst = pointer to interned string-pool entry A.
	RStr
	// RLoadLocal sets Dst = frame slot A.
	RLoadLocal
	// RLoadGlobal sets Dst = scalar value of global A.
	RLoadGlobal
	// RGlobalPtr sets Dst = pointer to cell 0 of global A.
	RGlobalPtr
	// RAddrLocal sets Dst = pointer to frame slot A.
	RAddrLocal
	// RAddrLocalArr sets Dst = the cell the local array in slot A designates
	// as an lvalue (null-checked at Pos).
	RAddrLocalArr
	// RAddrIndex sets Dst = address of src(AM,A)[src(BM,B)], checked at Pos.
	RAddrIndex
	// RAddrDeref sets Dst = checked cell address of the pointer in reg A.
	RAddrDeref
	// RLoadIndex sets Dst = src(AM,A)[src(BM,B)], checked at Pos.
	RLoadIndex
	// RLoadDeref sets Dst = *(reg A), checked at Pos.
	RLoadDeref
	// RStoreLocal stores src(BM,B) into frame slot A.
	RStoreLocal
	// RStoreGlobal stores src(BM,B) into global scalar A.
	RStoreGlobal
	// RStoreCell stores src(BM,B) through the cell address in reg A.
	RStoreCell
	// RStoreLocalOp applies compound assignment `slot A Kind= src(BM,B)` at
	// Pos; the result is written back and to Dst (when Dst >= 0).
	RStoreLocalOp
	// RStoreGlobalOp is RStoreLocalOp for global scalar A.
	RStoreGlobalOp
	// RStoreCellOp applies compound assignment through the cell address in
	// reg A with rhs src(BM,B).
	RStoreCellOp
	// RZeroLocal stores integer 0 into frame slot A.
	RZeroLocal
	// RAllocArr allocates a Val-cell object named Name and stores a pointer
	// to it into frame slot A.
	RAllocArr
	// RIncLocal adds Val (±1) to frame slot A with the tree walker's pointer
	// and symbolic rules; the old value goes to Dst (when Dst >= 0).
	RIncLocal
	// RIncCell is RIncLocal through the cell address in reg A.
	RIncCell
	// RUnary sets Dst = UnaryOp(Kind, src(AM,A)) evaluated at Pos.
	RUnary
	// RBinary sets Dst = BinOp(Kind, src(AM,A), src(BM,B)) evaluated at Pos.
	RBinary
	// RBool sets Dst = the 0/1 coercion of src(AM,A).
	RBool
	// RShortCircuit reads the left operand of Site's && / || (Kind) from
	// src(AM,A), reports the branch event, and either falls through into the
	// right-operand code or writes the short-circuit result to Dst and jumps
	// to C.
	RShortCircuit
	// RBranch reads the condition of Site from src(AM,A), reports the branch
	// event, and jumps to B when taken, C when not.
	RBranch
	// RJump jumps to A.
	RJump
	// RCall copies regs A..A+B-1 into Fn's frame and transfers control to it
	// (stack-overflow-checked); the return value lands in Dst.
	RCall
	// RCallB invokes builtin Name at Pos with arguments regs A..A+B-1; the
	// result lands in Dst.
	RCallB
	// RRet returns src(AM,A) to the caller; returning from the entry
	// function ends the run with exit(0).
	RRet
	// RRetZero is RRet with an implicit integer 0 return value.
	RRetZero

	// Fused superinstructions. Each charges the summed Steps of its
	// constituents up front; fuse.go only forms groups whose constituents
	// before the last crash-capable/observable one are pure, which keeps the
	// batched charge indistinguishable from the tree walker's per-node
	// schedule (see doc.go).

	// RCmpBranch computes cond = BinOp(Kind, src(AM,A), src(BM,B)) at Pos,
	// reports Site's branch event, and jumps to C when taken, Val when not.
	RCmpBranch
	// RBinStoreLocal computes BinOp(Kind, src(AM,A), src(BM,B)) at Pos and
	// stores it both to frame slot C and to Dst.
	RBinStoreLocal
	// RBinStoreGlobal is RBinStoreLocal for global scalar C.
	RBinStoreGlobal
	// RStoreIndex stores src(CM,C) into src(AM,A)[src(BM,B)], checked at Pos.
	RStoreIndex
	// RIncIndex adds Val (±1) to src(AM,A)[src(BM,B)] (checked at Pos); the
	// old value goes to Dst (when Dst >= 0).
	RIncIndex
)

var rOpNames = [...]string{
	RNop: "nop", RConst: "const", RStr: "str",
	RLoadLocal: "loadl", RLoadGlobal: "loadg", RGlobalPtr: "gptr",
	RAddrLocal: "addrl", RAddrLocalArr: "addrla", RAddrIndex: "addridx",
	RAddrDeref: "addrderef", RLoadIndex: "loadidx", RLoadDeref: "loadderef",
	RStoreLocal: "storel", RStoreGlobal: "storeg", RStoreCell: "storec",
	RStoreLocalOp: "storelop", RStoreGlobalOp: "storegop", RStoreCellOp: "storecop",
	RZeroLocal: "zerol", RAllocArr: "allocarr", RIncLocal: "incl", RIncCell: "incc",
	RUnary: "unary", RBinary: "binary", RBool: "bool",
	RShortCircuit: "shortcirc", RBranch: "branch", RJump: "jump",
	RCall: "call", RCallB: "callb", RRet: "ret", RRetZero: "ret0",
	RCmpBranch: "cmpbr", RBinStoreLocal: "binstorel", RBinStoreGlobal: "binstoreg",
	RStoreIndex: "storeidx", RIncIndex: "incidx",
}

// String implements fmt.Stringer.
func (o ROp) String() string {
	if int(o) < len(rOpNames) && rOpNames[o] != "" {
		return rOpNames[o]
	}
	return "rop?"
}

// SrcMode selects where a moded operand of a register instruction comes
// from. Every mode is pure — fetching an operand cannot crash, observe or
// charge steps — which is what makes folding operand loads into their
// consumers exact (the load's charge is batched into the consumer's Steps).
type SrcMode uint8

// Operand source modes.
const (
	// SrcReg reads register index X.
	SrcReg SrcMode = iota
	// SrcLocal reads frame slot X.
	SrcLocal
	// SrcGlobal reads the scalar value of global X.
	SrcGlobal
	// SrcConst is the int32 immediate X.
	SrcConst
	// SrcGPtr is a pointer to cell 0 of global X (array decay).
	SrcGPtr
	// SrcLAddr is a pointer to frame slot X (&local).
	SrcLAddr
)

var srcModeNames = [...]string{
	SrcReg: "r", SrcLocal: "l", SrcGlobal: "g",
	SrcConst: "c", SrcGPtr: "gp", SrcLAddr: "&l",
}

// String implements fmt.Stringer.
func (s SrcMode) String() string {
	if int(s) < len(srcModeNames) {
		return srcModeNames[s]
	}
	return "m?"
}

// RInstr is one register-form instruction.
type RInstr struct {
	Op ROp
	// AM and BM are the source modes of the A and B operands; CM is the
	// source mode of C for RStoreIndex.
	AM, BM, CM SrcMode
	// Steps is the number of tree-walker step charges that precede this
	// instruction's effects, summed over every fused constituent; the VM
	// applies them (with the budget check) before executing the instruction.
	Steps int32
	// Dst is the destination register; -1 means the result is discarded.
	Dst int32
	// A, B and C are register indexes, moded operand indexes, frame/global
	// slots, argument bases/counts or jump targets, per opcode.
	A, B, C int32
	// Val is an integer literal, array size, ±1 increment delta, or the
	// not-taken target of RCmpBranch.
	Val int64
	// Kind is the operator token for unary/binary/compound/short-circuit ops.
	Kind lang.Kind
	// Pos is the source position used for crash attribution.
	Pos lang.Pos
	// Site is the branch site of RBranch/RShortCircuit/RCmpBranch.
	Site *lang.BranchSite
	// Fn is the callee of RCall.
	Fn *FuncCode
	// Name is the builtin name of RCallB or the object name of RAllocArr.
	Name string
	// Sub lists the constituent ops a fused instruction replaces, in
	// execution order (nil when the instruction is not fused). It exists for
	// disassembly and fusion statistics only; the VM never reads it.
	Sub []ROp
}
