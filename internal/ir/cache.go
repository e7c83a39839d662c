package ir

import (
	"sync"

	"pathlog/internal/lang"
	"pathlog/internal/vm"
)

// The compile cache. A replay search runs one program hundreds to thousands
// of times — and the corpus layer re-parses the same sources into fresh AST
// instances — so compiled programs are shared process-wide: first by
// *lang.Program identity (lock-free fast path), then by structural hash, so
// re-linked copies of the same source reuse the same bytecode.
var (
	ptrCache  sync.Map // *lang.Program -> *Program
	hashMu    sync.Mutex
	hashCache = map[string]*Program{}
)

// Compile returns the bytecode for a linked program, compiling at most once
// per structurally distinct program.
func Compile(src *lang.Program) (*Program, error) {
	if p, ok := ptrCache.Load(src); ok {
		return p.(*Program), nil
	}
	h := hashProgram(src)
	hashMu.Lock()
	p := hashCache[h]
	hashMu.Unlock()
	if p == nil {
		var err error
		p, err = compile(src)
		if err != nil {
			return nil, err
		}
		p.Hash = h
		hashMu.Lock()
		// Two goroutines may have compiled concurrently; keep the first so
		// every caller shares one instance.
		if q, ok := hashCache[h]; ok {
			p = q
		} else {
			hashCache[h] = p
		}
		hashMu.Unlock()
	}
	ptrCache.Store(src, p)
	return p, nil
}

// Engine is the vm.Factory of the bytecode engine: it compiles the program
// (cached) and returns a dispatch-loop machine for one run. Every layer that
// takes a vm.Factory (record, concolic analysis, replay) runs it when handed
// nil; the tree walker (vm.TreeFactory) is only the parity tests'
// differential oracle.
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

// ResetCacheForTesting clears the process-wide compile cache.
func ResetCacheForTesting() {
	ptrCache = sync.Map{}
	hashMu.Lock()
	hashCache = map[string]*Program{}
	hashMu.Unlock()
}
