package vm

import (
	"errors"

	"pathlog/internal/lang"
)

// Machine is one execution of a MiniC program. The tree-walking interpreter
// (New) and the bytecode VM (internal/ir) both satisfy it; everything above
// this interface — the branch sinks, the kernel, the symbolic world — is
// engine-agnostic, which is what makes the tree walker usable as a
// differential-testing oracle for the bytecode engine.
type Machine interface {
	// Run executes the program's main function to completion.
	Run() (Result, error)
}

// Factory builds a fresh Machine for one run of prog under opts. The record,
// concolic and replay layers each take a Factory; a nil Factory means the
// bytecode VM (ir.Engine) in every layer, and the engine parity tests pass
// TreeFactory to run the same pipeline on the oracle.
type Factory func(prog *lang.Program, opts Options) Machine

// TreeFactory is the Factory of the tree-walking interpreter — the original
// recursive evaluator, kept as the parity oracle for faster engines.
func TreeFactory(prog *lang.Program, opts Options) Machine { return New(prog, opts) }

// The constructors below build the abnormal-termination errors an execution
// engine threads through its evaluator. Finish maps them onto a Result
// exactly the way the tree walker does, so every engine built on them reports
// crashes, exits, aborts and budget blowups identically.

// CrashError terminates a run with a program crash at the given site.
func CrashError(kind CrashKind, pos lang.Pos, code int64) error {
	return &runError{crash: &CrashInfo{Kind: kind, Pos: pos, Code: code}}
}

// ExitError terminates a run as a normal exit with the given code.
func ExitError(code int64) error { return &runError{exit: &code} }

// BudgetError terminates a run that exceeded its step budget.
func BudgetError() error { return &runError{budget: true} }

// SinkError wraps a BranchSink error: ErrAbortRun becomes an engine abort,
// anything else a VM-internal failure.
func SinkError(err error) error {
	if errors.Is(err, ErrAbortRun) {
		return &runError{abort: true}
	}
	return &runError{err: err}
}

// Finish assembles a Result from a run's counters and its termination error,
// with the same classification the tree walker applies: crash, exit, sink
// abort and budget blowup produce a Result; anything else is a VM-internal
// error and is returned as one.
func Finish(steps, branchExecs int64, stdout []byte, err error) (Result, error) {
	res := Result{
		Steps:       steps,
		BranchExecs: branchExecs,
		Stdout:      stdout,
	}
	var re *runError
	if !errors.As(err, &re) {
		return res, err
	}
	switch {
	case re.crash != nil:
		res.Crashed = true
		res.Crash = *re.crash
	case re.exit != nil:
		res.Exit = *re.exit
	case re.abort:
		res.Aborted = true
	case re.budget:
		res.BudgetExceeded = true
	default:
		return res, re.err
	}
	return res, nil
}
