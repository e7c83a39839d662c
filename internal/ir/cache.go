package ir

import (
	"pathlog/internal/lang"
	"pathlog/internal/vm"
)

// Compile returns the bytecode for a linked program. A replay search runs
// one program hundreds to thousands of times, so the bytecode is compiled
// once per linked program and memoised on it (lang.Program.Compiled): every
// caller, concurrent or not, shares one *Program, and the bytecode lives
// exactly as long as its source program.
func Compile(src *lang.Program) (*Program, error) {
	p, err := src.Compiled(func(src *lang.Program) (any, error) { return compile(src) })
	if err != nil {
		return nil, err
	}
	return p.(*Program), nil
}

// Engine is the vm.Factory of the bytecode engine: it compiles the program
// (once, see Compile) and returns a dispatch-loop machine for one run. Every
// layer that takes a vm.Factory (record, concolic analysis, replay) runs it
// when handed nil; the tree walker (vm.TreeFactory) is only the parity
// tests' differential oracle.
func Engine(prog *lang.Program, opts vm.Options) vm.Machine {
	p, err := Compile(prog)
	if err != nil {
		return errMachine{err}
	}
	return newMachine(p, opts)
}

// errMachine surfaces a compile error at Run time, where every engine's
// errors already flow.
type errMachine struct{ err error }

// Run implements vm.Machine.
func (e errMachine) Run() (vm.Result, error) { return vm.Result{}, e.err }
