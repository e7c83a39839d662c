package concolic_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"pathlog/internal/apps"
	"pathlog/internal/concolic"
	"pathlog/internal/ir"
	"pathlog/internal/lang"
	"pathlog/internal/vm"
	"pathlog/internal/world"
)

// hookMachine is a bytecode VM whose Run first calls before, its nth call
// across the factory's machines being n, and fails with before's error.
type hookMachine struct {
	vm.Machine
	calls  *atomic.Int32
	before func(n int32) error
}

func (m *hookMachine) Run() (vm.Result, error) {
	if err := m.before(m.calls.Add(1)); err != nil {
		return vm.Result{}, err
	}
	return m.Machine.Run()
}

// hooked returns an engine of hookMachines sharing one call counter.
func hooked(calls *atomic.Int32, before func(n int32) error) vm.Factory {
	return func(prog *lang.Program, opts vm.Options) vm.Machine {
		return &hookMachine{Machine: ir.Engine(prog, opts), calls: calls, before: before}
	}
}

// exploreRecovering explores the uServer analysis over engine and returns
// the report, or what Explore panicked with on the calling goroutine.
func exploreRecovering(ctx context.Context, engine vm.Factory) (rep *concolic.Report, panicked any) {
	defer func() { panicked = recover() }()
	s := apps.UServerAnalysisScenario()
	opts := concolic.Options{MaxRuns: 60, Engine: engine}
	return concolic.New(s.Prog, s.Spec, world.NewRegistry(s.Spec), opts).Explore(ctx), nil
}

// TestRunFailurePanicsOnCaller holds Explore to its contract for a run
// that fails on a worker: a VM-internal error in run k, and a panic in it,
// panic on Explore's caller with what the run failed with, and no
// goroutine Explore started outlives it.
func TestRunFailurePanicsOnCaller(t *testing.T) {
	errVM := errors.New("vm: internal error")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range []struct {
			name string
			fail func() error
			want any
		}{
			{"error", func() error { return errVM }, errVM},
			{"panic", func() error { panic("vm: broken invariant") }, "vm: broken invariant"},
		} {
			before := runtime.NumGoroutine()
			var calls atomic.Int32
			engine := hooked(&calls, func(n int32) error {
				if n == 7 {
					return tc.fail()
				}
				return nil
			})
			rep, got := exploreRecovering(context.Background(), engine)
			if got != tc.want {
				t.Errorf("procs=%d %s: Explore returned %v and panicked with %v, want a panic with %v", procs, tc.name, rep, got, tc.want)
			}
			if n := settledGoroutines(before); n > before {
				t.Errorf("procs=%d %s: %d goroutines after Explore, %d before", procs, tc.name, n, before)
			}
		}
	}
}

// TestCancelInsideRunStartsNoLaterRun cancels the context from inside the
// kth run to start. No run may start after that: with one worker, runs
// start one at a time in run order, so the kth is the last to start and
// the last to count; with more, only the runs other workers were already
// starting may follow it. Either way no goroutine Explore started outlives
// it.
func TestCancelInsideRunStartsNoLaterRun(t *testing.T) {
	const k = 7
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int32
		engine := hooked(&calls, func(n int32) error {
			if n == k {
				cancel()
			}
			return nil
		})
		rep, panicked := exploreRecovering(ctx, engine)
		cancel()
		if panicked != nil {
			t.Fatalf("procs=%d: Explore panicked: %v", procs, panicked)
		}
		started := int(calls.Load())
		if procs == 1 && (started != k || rep.Runs != k) {
			t.Errorf("procs=1: %d runs started and %d counted, want %d and %d", started, rep.Runs, k, k)
		}
		if started > k+procs-1 || rep.Runs > started || rep.Runs == 0 {
			t.Errorf("procs=%d: %d runs started and %d counted after a cancel in run %d", procs, started, rep.Runs, k)
		}
		if n := settledGoroutines(before); n > before {
			t.Errorf("procs=%d: %d goroutines after Explore, %d before", procs, n, before)
		}
	}
}
