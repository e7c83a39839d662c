// Command record performs the user-site half of the workflow: it analyzes a
// named benchmark scenario, instruments it with the chosen method, runs the
// user input to the crash, and writes the bug report (branch bitvector +
// optional syscall results + crash site) to a file.
//
// With -store, the deployed plan is retained in the plan store under its
// fingerprint and the report is written as a stamped-only reference
// envelope: no branch set ships with the report at all — cmd/replay
// resolves the exact retained plan generation from the same store by the
// stamp. This is the deployment lifecycle; without -store the full
// envelope (plan embedded) is written as before.
//
// Usage:
//
//	record -scenario paste -method dynamic+static -o bug.report
//	record -scenario paste -store ./planstore -o bug.report
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"pathlog"
	"pathlog/internal/apps"
	"pathlog/internal/instrument"
)

func main() {
	var (
		scenario = flag.String("scenario", "", "scenario name (see -list)")
		method   = flag.String("method", "dynamic+static",
			"instrumentation method: dynamic, static, dynamic+static, all")
		out      = flag.String("o", "bug.report", "output report path")
		dynRuns  = flag.Int("dynamic-runs", 400, "concolic analysis budget")
		syscalls = flag.Bool("log-syscalls", true, "log select()/read() results")
		list     = flag.Bool("list", false, "list scenario names")
		planIn   = flag.String("plan", "",
			"instrument with this saved plan file instead of deriving one (skips analysis)")
		planOut = flag.String("plan-out", "",
			"save the plan used for this recording (ship it to the developer site)")
		storeDir = flag.String("store", "",
			"retain the deployed plan in this plan store and write a stamped-only reference report")
	)
	flag.Parse()
	if *list {
		for _, n := range apps.ScenarioNames() {
			fmt.Println(n)
		}
		return
	}
	if *scenario == "" {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	s, err := apps.ScenarioByName(*scenario)
	if err != nil {
		fatal(err)
	}
	m, err := instrument.ParseMethod(*method)
	if err != nil {
		fatal(err)
	}

	an := apps.AnalysisScenarioFor(*scenario, s)
	opts := []pathlog.Option{
		pathlog.WithStrategy(pathlog.StrategyForMethod(m)),
		pathlog.WithAnalysisSpec(an.Spec),
		pathlog.WithDynamicBudget(*dynRuns, 0),
		pathlog.WithStaticOptions(pathlog.StaticOptions{
			LibAsSymbolic: strings.HasPrefix(*scenario, "userver"),
		}),
	}
	if *syscalls {
		opts = append(opts, pathlog.WithSyscallLog())
	}
	if *storeDir != "" {
		opts = append(opts, pathlog.WithPlanStore(*storeDir))
	}
	sess := pathlog.SessionOf(s, opts...)

	var plan *pathlog.Plan
	if *planIn != "" {
		// A saved plan carries its own branch set and fingerprint; it must
		// fit this program, and no analysis is needed.
		plan, err = pathlog.LoadPlan(*planIn)
		if err != nil {
			fatal(err)
		}
		if err := plan.ValidateForProgram(s.Prog); err != nil {
			fatal(err)
		}
	} else if plan, err = sess.Plan(ctx); err != nil {
		fatal(err)
	}
	label := plan.Strategy
	if label == "" {
		label = m.String()
	}
	fmt.Printf("plan: %s instruments %d of %d branch locations (fingerprint %s)\n",
		label, plan.NumInstrumented(), len(s.Prog.Branches), plan.Fingerprint())
	if plan.Cost.Modeled {
		fmt.Printf("cost model: ~%.0f logged bits/run\n", plan.EstimatedOverhead())
	}
	if *planOut != "" {
		if err := plan.Save(*planOut); err != nil {
			fatal(err)
		}
		fmt.Printf("plan written to %s\n", *planOut)
	}

	rec, stats, err := sess.RecordWith(ctx, plan, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("user run: %d steps, %d branch executions, %d bits logged (%d flushes)\n",
		stats.Steps, stats.BranchExecs, stats.TraceBits, stats.Flushes)
	if rec == nil {
		fmt.Println("the user run did not crash; no report written")
		return
	}
	fmt.Printf("crash: %s\n", rec.Crash.Site())
	if *storeDir != "" {
		// The plan was retained in the store by the record step itself; the
		// report needs only the stamp.
		if err := rec.SaveRef(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("plan retained in store %s; stamped-only bug report written to %s (trace %d bytes, syslog %d bytes) — no plan, no input bytes\n",
			*storeDir, *out, rec.Trace.SizeBytes(), stats.SyslogBytes)
		fmt.Printf("replay with: replay -scenario %s -in %s -store %s\n", *scenario, *out, *storeDir)
		return
	}
	if err := rec.Save(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("bug report written to %s (trace %d bytes, syslog %d bytes) — no input bytes included\n",
		*out, rec.Trace.SizeBytes(), stats.SyslogBytes)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "record:", err)
	os.Exit(1)
}
