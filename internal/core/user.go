// Package core is the user-site run of the paper's workflow: the
// instrumented program runs concrete on the user's input, logging one bit
// per instrumented branch plus optional syscall results; on a crash, the
// log and the crash site form the bug report. Record, MeasureOverhead and
// Verify are the one implementation of that run (pathlog.Session calls
// them with the bytecode VM, the engine parity tests with the tree
// walker).
//
// No user input bytes ever flow into the bug report: a Recording contains
// only the bitvector, optional syscall results, and the crash site.
package core

import (
	"context"
	"fmt"
	"time"

	"pathlog/internal/instrument"
	"pathlog/internal/ir"
	"pathlog/internal/lang"
	"pathlog/internal/oskernel"
	"pathlog/internal/replay"
	"pathlog/internal/vm"
	"pathlog/internal/world"
)

// RecordStats quantifies one user-site run: the instrumentation overhead
// numbers of Figures 2, 4 and 5 are computed from these.
type RecordStats struct {
	Wall              time.Duration
	Steps             int64
	BranchExecs       int64
	InstrumentedExecs int64
	TraceBits         int64
	TraceBytes        int64
	SyslogBytes       int64
	Flushes           int
	Stdout            []byte
}

// concreteKernel builds the record-mode kernel of one concrete run over the
// spec seeded with the user's bytes.
func concreteKernel(spec *world.Spec, user map[string][]byte, sysLog *oskernel.SyscallLog) (*oskernel.Kernel, error) {
	userSpec, err := spec.UserSpec(user)
	if err != nil {
		return nil, err
	}
	w := world.NewWorld(userSpec, world.NewRegistry(userSpec), nil)
	w.Symbolic = false
	cfg := w.KernelConfig()
	cfg.Mode = oskernel.ModeRecord
	if sysLog != nil {
		cfg.Log = sysLog
		cfg.LogSyscalls = true
	}
	return oskernel.New(cfg), nil
}

// engineOr resolves a nil engine to the bytecode VM, the default of every
// layer.
func engineOr(eng vm.Factory) vm.Factory {
	if eng != nil {
		return eng
	}
	return ir.Engine
}

// Record executes the user-site run of prog under plan, on the spec seeded
// with the user's bytes, and assembles the bug report. The run is fully
// concrete — no symbolic machinery is attached, so measured overhead is
// exactly the branch logger plus syscall-result logging. A nil engine runs
// the bytecode VM. The context gates only the start of the run: a
// user-site run is one bounded concrete execution, so once started it
// completes. A run that does not crash, or an uninstrumented one, yields
// stats and no report.
func Record(ctx context.Context, eng vm.Factory, prog *lang.Program, spec *world.Spec, user map[string][]byte, plan *instrument.Plan) (*replay.Recording, *RecordStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	var sysLog *oskernel.SyscallLog
	if plan.LogSyscalls {
		sysLog = oskernel.NewSyscallLog()
	}
	kern, err := concreteKernel(spec, user, sysLog)
	if err != nil {
		return nil, nil, err
	}

	var sink vm.BranchSink
	var logger *instrument.Logger
	if plan.Instruments() {
		logger = instrument.NewLogger(plan)
		sink = logger
	}

	start := time.Now()
	res, err := engineOr(eng)(prog, vm.Options{Kernel: kern, Sink: sink}).Run()
	wall := time.Since(start)
	if err != nil {
		return nil, nil, fmt.Errorf("core: user run failed: %w", err)
	}

	stats := &RecordStats{
		Wall:        wall,
		Steps:       res.Steps,
		BranchExecs: res.BranchExecs,
		Stdout:      res.Stdout,
	}
	if sysLog != nil {
		stats.SyslogBytes = sysLog.SizeBytes()
	}
	if logger == nil {
		return nil, stats, nil
	}
	tr := logger.Finish()
	stats.InstrumentedExecs = logger.InstrumentedExecs
	stats.TraceBits = tr.Len()
	stats.TraceBytes = tr.SizeBytes()
	stats.Flushes = logger.Flushes()
	if !res.Crashed {
		return nil, stats, nil
	}
	// The recording is stamped with the plan's fingerprint so the developer
	// site can refuse a plan/recording/program mismatch.
	return &replay.Recording{Plan: plan, Trace: tr, SysLog: sysLog,
		Crash: res.Crash, Fingerprint: plan.Fingerprint()}, stats, nil
}

// MeasureOverhead runs the user-site workload repeatedly under a plan and
// returns the average wall time, without requiring a crash. One untimed
// warm-up run precedes the measured rounds so allocator and cache effects
// do not pollute the first sample; overhead comparisons need many rounds
// for microsecond-scale workloads. Cancelling the context stops between
// rounds.
func MeasureOverhead(ctx context.Context, eng vm.Factory, prog *lang.Program, spec *world.Spec, user map[string][]byte, plan *instrument.Plan, rounds int) (time.Duration, *RecordStats, error) {
	if rounds <= 0 {
		rounds = 1
	}
	warmup := min(rounds/10+1, 20)
	for i := 0; i < warmup; i++ {
		if _, _, err := Record(ctx, eng, prog, spec, user, plan); err != nil {
			return 0, nil, err
		}
	}
	var total time.Duration
	var last *RecordStats
	for i := 0; i < rounds; i++ {
		_, stats, err := Record(ctx, eng, prog, spec, user, plan)
		if err != nil {
			return 0, nil, err
		}
		total += stats.Wall
		last = stats
	}
	return total / time.Duration(rounds), last, nil
}

// Verify checks that an input found by replay really activates the
// recorded bug: it runs the program concretely on those bytes and compares
// crash sites. This is the paper's post-replay verification step (§5.3).
func Verify(eng vm.Factory, prog *lang.Program, spec *world.Spec, input map[string][]byte, want vm.CrashInfo) bool {
	kern, err := concreteKernel(spec, input, nil)
	if err != nil {
		return false
	}
	res, err := engineOr(eng)(prog, vm.Options{Kernel: kern}).Run()
	if err != nil {
		return false
	}
	return res.Crashed && res.Crash.Kind == want.Kind && res.Crash.Pos == want.Pos
}
