// Package core wires the paper's full workflow together — the primary
// contribution of the reproduced system:
//
//	pre-deployment   dynamic (concolic) and/or static analysis labels
//	                 branch locations; an instrumentation plan is built
//	user site        the instrumented program runs concrete, logging one
//	                 bit per instrumented branch plus optional syscall
//	                 results; on a crash, the log and crash site form the
//	                 bug report
//	developer site   the replay engine drives symbolic execution with the
//	                 partial branch log and produces a set of inputs that
//	                 activates the bug
//
// No user input bytes ever flow into the bug report: a Recording contains
// only the bitvector, optional syscall results, and the crash site.
package core

import (
	"context"
	"fmt"
	"time"

	"pathlog/internal/concolic"
	"pathlog/internal/instrument"
	"pathlog/internal/ir"
	"pathlog/internal/lang"
	"pathlog/internal/oskernel"
	"pathlog/internal/replay"
	"pathlog/internal/static"
	"pathlog/internal/vm"
	"pathlog/internal/world"
)

// Scenario binds a program to an input space and one user execution.
type Scenario struct {
	Name string
	Prog *lang.Program
	// Spec is the neutral input space: stream shapes with placeholder
	// seeds. Analysis and replay see only this — never the user's bytes.
	Spec *world.Spec
	// UserBytes holds the user-site input per stream name (the bytes that
	// actually trigger the bug at record time).
	UserBytes map[string][]byte
	// Engine builds the execution machine every pipeline stage runs the
	// program with. Nil selects the bytecode VM (ir.Engine), the default of
	// every layer; only the engine parity tests set vm.TreeFactory, the
	// tree-walking differential oracle.
	Engine vm.Factory
}

// engine resolves the engine of the runs the scenario drives itself
// (record, verify); analysis and replay pass Engine through, and their
// layers apply the same nil rule.
func (s *Scenario) engine() vm.Factory {
	if s.Engine != nil {
		return s.Engine
	}
	return ir.Engine
}

// UserSpec materializes the user-site input space: the neutral spec with
// seeds replaced by the user's bytes. Every UserBytes key must name a
// declared stream; a key that matches nothing is an error, not a silent
// no-op — a typo'd stream name would otherwise record the wrong input.
func (s *Scenario) UserSpec() (*world.Spec, error) {
	declared := make(map[string]bool,
		len(s.Spec.Args)+len(s.Spec.Files)+len(s.Spec.Conns))
	for _, a := range s.Spec.Args {
		declared[a.Name] = true
	}
	for _, f := range s.Spec.Files {
		declared[f.Stream.Name] = true
	}
	for _, c := range s.Spec.Conns {
		declared[c.Stream.Name] = true
	}
	for name := range s.UserBytes {
		if !declared[name] {
			return nil, fmt.Errorf("core: user input names stream %q, but the spec declares no such stream", name)
		}
	}
	cp := *s.Spec
	cp.Args = append([]world.Stream(nil), s.Spec.Args...)
	cp.Files = append([]world.FileInput(nil), s.Spec.Files...)
	cp.Conns = append([]world.ConnInput(nil), s.Spec.Conns...)
	for i := range cp.Args {
		if err := overrideSeed(&cp.Args[i], s.UserBytes); err != nil {
			return nil, err
		}
	}
	for i := range cp.Files {
		if err := overrideSeed(&cp.Files[i].Stream, s.UserBytes); err != nil {
			return nil, err
		}
	}
	for i := range cp.Conns {
		if err := overrideSeed(&cp.Conns[i].Stream, s.UserBytes); err != nil {
			return nil, err
		}
	}
	return &cp, nil
}

func overrideSeed(st *world.Stream, user map[string][]byte) error {
	b, ok := user[st.Name]
	if !ok {
		return nil
	}
	if len(b) > st.Len {
		return fmt.Errorf("core: user input for %s is %d bytes, stream caps at %d",
			st.Name, len(b), st.Len)
	}
	st.Seed = b
	return nil
}

// AnalyzeDynamicContext runs the concolic analysis over the neutral input
// space; the context's cancellation or deadline stops exploration after the
// current run.
func (s *Scenario) AnalyzeDynamicContext(ctx context.Context, opts concolic.Options) *concolic.Report {
	if opts.Engine == nil {
		opts.Engine = s.Engine
	}
	ex := concolic.New(s.Prog, s.Spec, world.NewRegistry(s.Spec), opts)
	return ex.Explore(ctx)
}

// AnalyzeStatic runs the static analysis.
func (s *Scenario) AnalyzeStatic(opts static.Options) *static.Report {
	return static.Analyze(s.Prog, opts)
}

// Plan builds the instrumentation plan for a method through the composition
// it names (instrument.StrategyForMethod). A method whose analysis is
// missing from in is a programming error: Plan panics with the strategy's
// error.
func (s *Scenario) Plan(method instrument.Method, in instrument.Inputs, logSyscalls bool) *instrument.Plan {
	p, err := instrument.StrategyForMethod(method).Plan(context.Background(),
		instrument.NewPlanContext(s.Prog, in, logSyscalls))
	if err != nil {
		panic(fmt.Sprintf("core: plan %s for %s: %v", method, s.Name, err))
	}
	return p
}

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
	Syscalls          int64
}

// RecordContext executes the user-site run under a plan and assembles the
// bug report. The run is fully concrete — no symbolic machinery is attached,
// so measured overhead is exactly the branch logger plus syscall-result
// logging. The context gates only the start of the run: a user-site run is
// one bounded concrete execution, so once started it completes.
func (s *Scenario) RecordContext(ctx context.Context, plan *instrument.Plan) (*replay.Recording, *RecordStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	userSpec, err := s.UserSpec()
	if err != nil {
		return nil, nil, err
	}
	w := world.NewWorld(userSpec, world.NewRegistry(userSpec), nil)
	w.Symbolic = false
	cfg := w.KernelConfig()
	cfg.Mode = oskernel.ModeRecord
	var sysLog *oskernel.SyscallLog
	if plan.LogSyscalls {
		sysLog = oskernel.NewSyscallLog()
		cfg.Log = sysLog
		cfg.LogSyscalls = true
	}
	kern := oskernel.New(cfg)

	var sink vm.BranchSink
	var logger *instrument.Logger
	if plan.Instruments() {
		logger = instrument.NewLogger(plan)
		sink = logger
	}

	start := time.Now()
	res, err := s.engine()(s.Prog, vm.Options{Kernel: kern, Sink: sink}).Run()
	wall := time.Since(start)
	if err != nil {
		return nil, nil, fmt.Errorf("core: user run failed: %w", err)
	}

	stats := &RecordStats{
		Wall:        wall,
		Steps:       res.Steps,
		BranchExecs: res.BranchExecs,
		Stdout:      res.Stdout,
		Syscalls:    kern.NSyscalls,
	}
	if sysLog != nil {
		stats.SyslogBytes = sysLog.SizeBytes()
	}

	var rec *replay.Recording
	if logger != nil {
		tr := logger.Finish()
		stats.InstrumentedExecs = logger.InstrumentedExecs
		stats.TraceBits = tr.Len()
		stats.TraceBytes = tr.SizeBytes()
		stats.Flushes = logger.Flushes()
		// The recording is stamped with the plan's fingerprint so the
		// developer site can refuse a plan/recording/program mismatch.
		rec = &replay.Recording{Plan: plan, Trace: tr, SysLog: sysLog,
			Fingerprint: plan.Fingerprint()}
	}

	if !res.Crashed {
		// A non-crashing run still yields stats (overhead measurements use
		// healthy runs) but no bug report.
		return nil, stats, nil
	}
	if rec == nil {
		return nil, stats, nil // uninstrumented builds report nothing
	}
	rec.Crash = res.Crash
	return rec, stats, nil
}

// MeasureOverheadContext runs the user-site workload repeatedly under a plan
// and returns the average wall time, without requiring a crash. One untimed
// warm-up run precedes the measured rounds so allocator and cache effects do
// not pollute the first sample; overhead comparisons need many rounds for
// microsecond-scale workloads. Cancelling the context stops between rounds.
func (s *Scenario) MeasureOverheadContext(ctx context.Context, plan *instrument.Plan, rounds int) (time.Duration, *RecordStats, error) {
	if rounds <= 0 {
		rounds = 1
	}
	warmup := rounds/10 + 1
	if warmup > 20 {
		warmup = 20
	}
	for i := 0; i < warmup; i++ {
		if _, _, err := s.RecordContext(ctx, plan); err != nil {
			return 0, nil, err
		}
	}
	var total time.Duration
	var last *RecordStats
	for i := 0; i < rounds; i++ {
		_, stats, err := s.RecordContext(ctx, plan)
		if err != nil {
			return 0, nil, err
		}
		total += stats.Wall
		last = stats
	}
	return total / time.Duration(rounds), last, nil
}

// ReplayContext reproduces a recorded bug with one serial depth-first
// search. The context's cancellation or deadline stops the guided search
// within one run. Concurrent calls on one Scenario are safe: each builds its
// own engine, registry and per-run worlds.
func (s *Scenario) ReplayContext(ctx context.Context, rec *replay.Recording, opts replay.Options) *replay.Result {
	if opts.Engine == nil {
		opts.Engine = s.Engine
	}
	eng := replay.New(s.Prog, s.Spec, world.NewRegistry(s.Spec), rec, opts)
	return eng.Reproduce(ctx)
}

// StripSyslog returns a recording with the syscall log removed, for the
// "without logging system calls" experiments (Tables 5 and 8). The trace and
// crash site are shared.
func StripSyslog(rec *replay.Recording) *replay.Recording {
	return &replay.Recording{Plan: rec.Plan, Trace: rec.Trace, SysLog: nil,
		Crash: rec.Crash, Fingerprint: rec.Fingerprint}
}

// VerifyInput checks that an input found by replay really activates the
// recorded bug: it runs the program concretely on those bytes and compares
// crash sites. This is the paper's post-replay verification step (§5.3).
func (s *Scenario) VerifyInput(inputBytes map[string][]byte, want vm.CrashInfo) bool {
	verify := &Scenario{Name: s.Name, Prog: s.Prog, Spec: s.Spec, UserBytes: inputBytes}
	spec, err := verify.UserSpec()
	if err != nil {
		return false
	}
	w := world.NewWorld(spec, world.NewRegistry(spec), nil)
	w.Symbolic = false
	cfg := w.KernelConfig()
	cfg.Mode = oskernel.ModeRecord
	res, err := s.engine()(s.Prog, vm.Options{Kernel: oskernel.New(cfg)}).Run()
	if err != nil {
		return false
	}
	return res.Crashed && res.Crash.Kind == want.Kind && res.Crash.Pos == want.Pos
}
