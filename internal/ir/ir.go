package ir

import (
	"pathlog/internal/lang"
)

// FuncCode is the compiled body of one function.
type FuncCode struct {
	// Decl is the source declaration.
	Decl *lang.FuncDecl
	// FrameName is Decl.Name + ".frame", precomputed so frame allocation
	// matches the tree walker's object naming without per-call formatting.
	FrameName string
	// RCode is the fused register code the VM executes (compile.go,
	// fuse.go). Entry is index 0 and every path ends in RRet/RRetZero.
	RCode []RInstr
	// NumRegs is the number of virtual registers RCode needs.
	NumRegs int
}

// Program is one compiled program: the register code of every function plus
// the constant pools shared by all runs.
type Program struct {
	// Src is the source program (globals table, branch sites, functions).
	Src *lang.Program
	// Funcs holds the compiled functions in lang.Program.FuncList order.
	Funcs []*FuncCode
	// Main is the entry function's code.
	Main *FuncCode
	// RInit is the global-initializer code, run once before main with no
	// frame; it ends by falling off the end of the array.
	RInit []RInstr
	// InitRegs is the register count of RInit.
	InitRegs int
	// Strings is the string constant pool; RStr.A indexes it. One entry per
	// string-literal site, in source order, matching the tree walker's
	// per-site interning.
	Strings []string
}
