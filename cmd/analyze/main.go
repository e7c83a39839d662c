// Command analyze runs the branch analyses over a named scenario and prints
// the classification of every branch location: the dynamic label, the static
// label, and the instrumentation decision each method would take.
//
// -frontier records and replays the scenario's workload under every plan
// of the default sweep and prints the Pareto frontier of the measurements.
// With -store, the sweep files its measurements in a plan store and folds
// the store's measured history for this scenario back in, and the store's
// health (plans retained, measured points, damaged entries) is reported.
// One refinement step from saved bug reports is cmd/tune -corpus.
//
// Usage:
//
//	analyze -scenario userver-exp1 -dynamic-runs 60
//	analyze -scenario userver-exp1 -plan-out plan.json
//	analyze -scenario userver-exp3 -frontier -store ./planstore
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
	"pathlog/internal/concolic"
	"pathlog/internal/instrument"
)

func main() {
	var (
		scenario = flag.String("scenario", "", "scenario name (cmd/record -list shows names)")
		dynRuns  = flag.Int("dynamic-runs", 200, "concolic analysis budget (the coverage knob)")
		libSym   = flag.Bool("lib-as-symbolic", false,
			"static analysis skips library bodies and labels all library branches symbolic (§5.3)")
		verbose  = flag.Bool("v", false, "print every branch location")
		method   = flag.String("method", "dynamic+static", "method for -plan-out")
		planOut  = flag.String("plan-out", "", "save the -method plan to this file")
		frontier = flag.Bool("frontier", false,
			"measure the default strategy set on the scenario's workload and print the overhead/debug-time Pareto frontier")
		storeDir = flag.String("store", "",
			"plan store directory: file -frontier's measurements and fold in measured history")
	)
	flag.Parse()
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
	an := apps.AnalysisScenarioFor(*scenario, s)
	sessOpts := []pathlog.Option{
		pathlog.WithAnalysisSpec(an.Spec),
		pathlog.WithDynamicBudget(*dynRuns, 0),
		pathlog.WithStaticOptions(pathlog.StaticOptions{LibAsSymbolic: *libSym}),
		pathlog.WithSyscallLog(),
	}
	if *storeDir != "" {
		sessOpts = append(sessOpts, pathlog.WithPlanStore(*storeDir))
	}
	sess := pathlog.SessionOf(s, sessOpts...)

	if *storeDir != "" {
		// Scan the store up front, independent of the session: a damaged
		// index that would refuse session operations still gets reported
		// here instead of hiding the whole store from the operator.
		st, err := pathlog.OpenPlanStore(*storeDir)
		if err != nil {
			fatal(err)
		}
		rep, err := st.Scan()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("store %s: %d plan(s) retained, %d measured point(s), %d damaged entr(ies)\n",
			*storeDir, rep.Plans, rep.MeasuredPoints, len(rep.Damaged))
		for _, d := range rep.Damaged {
			fmt.Printf("  damaged: %s: %v\n", d.Path, d.Err)
		}
	}

	in, err := sess.Analyze(ctx)
	if err != nil {
		fatal(err)
	}
	dyn, stat := in.Dynamic, in.Static

	total := len(s.Prog.Branches)
	fmt.Printf("program: %d branch locations\n", total)
	fmt.Printf("dynamic analysis: %d runs, coverage %.0f%%: %d symbolic, %d concrete, %d unvisited\n",
		dyn.Runs, 100*dyn.Coverage(total),
		dyn.CountLabel(concolic.Symbolic), dyn.CountLabel(concolic.Concrete),
		dyn.CountLabel(concolic.Unvisited))
	fmt.Printf("static analysis: %d symbolic (%d contexts, %d passes)\n",
		stat.CountSymbolic(), stat.Contexts, stat.Passes)

	fmt.Println("\ninstrumentation decisions:")
	plans := map[string]*pathlog.Plan{}
	for _, m := range pathlog.Methods {
		plan, err := sess.PlanWith(ctx, pathlog.StrategyForMethod(m))
		if err != nil {
			fatal(err)
		}
		plans[m.String()] = plan
		fmt.Printf("  %-15s %4d locations (%5.1f%%)  ~%.0f bits/run\n",
			m, plan.NumInstrumented(),
			100*float64(plan.NumInstrumented())/float64(total),
			plan.EstimatedOverhead())
	}

	if *frontier {
		points, err := sess.Frontier(ctx)
		if err != nil {
			fatal(err)
		}
		title := "measured on the scenario's workload"
		if *storeDir != "" {
			title += ", with measured history from " + *storeDir
		}
		fmt.Printf("\noverhead/debug-time Pareto frontier (%s):\n", title)
		fmt.Printf("  %-40s %6s %12s %12s  %s\n",
			"strategy", "locs", "bits/run", "replay runs", "fingerprint")
		for _, pt := range points {
			fmt.Printf("  %-40s %6d %12.1f %12.1f  %s\n",
				pt.Strategy, pt.Plan.NumInstrumented(), pt.Overhead, pt.ReplayRuns,
				pt.Plan.Fingerprint())
		}
	}

	if *planOut != "" {
		m, err := instrument.ParseMethod(*method)
		if err != nil {
			fatal(err)
		}
		plan, err := sess.PlanWith(ctx, pathlog.StrategyForMethod(m))
		if err != nil {
			fatal(err)
		}
		if err := plan.Save(*planOut); err != nil {
			fatal(err)
		}
		fmt.Printf("\nplan %s written to %s (fingerprint %s)\n",
			m, *planOut, plan.Fingerprint())
	}

	if *verbose {
		fmt.Println("\nper-branch classification:")
		header := fmt.Sprintf("  %-6s %-6s %-34s %-9s %-8s %s",
			"id", "kind", "location", "dynamic", "static", "methods")
		fmt.Println(header)
		fmt.Println("  " + strings.Repeat("-", len(header)-2))
		for _, b := range s.Prog.Branches {
			statLabel := "concrete"
			if stat.SymbolicBranches[b.ID] {
				statLabel = "symbolic"
			}
			var methods []string
			for _, m := range pathlog.Methods {
				if plans[m.String()].Instrumented[b.ID] {
					methods = append(methods, shortName(m))
				}
			}
			fmt.Printf("  b%-5d %-6s %-34s %-9s %-8s %s\n",
				b.ID, b.Kind, fmt.Sprintf("%s@%s:%d", b.Func, b.Pos.Unit, b.Pos.Line),
				dyn.Labels[b.ID], statLabel, strings.Join(methods, ","))
		}
	}
}

func shortName(m instrument.Method) string {
	switch m {
	case instrument.MethodDynamic:
		return "D"
	case instrument.MethodStatic:
		return "S"
	case instrument.MethodDynamicStatic:
		return "DS"
	case instrument.MethodAll:
		return "A"
	}
	return "?"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "analyze:", err)
	os.Exit(1)
}
