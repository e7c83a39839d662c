// Command analyze runs the branch analyses over a named scenario and prints
// the classification of every branch location: the dynamic label, the static
// label, and the instrumentation decision each method would take.
//
// -refine closes the loop from the developer site: given a saved bug
// report, it replays the recording, attributes the search cost per branch,
// and prints (and with -plan-out saves) the next plan generation — the
// recording's plan plus the top blowup branches.
//
// With -store, the analysis runs against a plan store: the -frontier sweep
// folds the store's measured history for this scenario back in (measured
// points marked, estimated-vs-measured drift rendered), a -refine'd plan
// is retained in the store as it is derived, and the store's health (plans
// retained, measured points, damaged entries) is reported.
//
// Usage:
//
//	analyze -scenario userver-exp1 -dynamic-runs 60
//	analyze -scenario userver-exp3 -refine bug.report -plan-out gen1.plan.json
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
	"time"

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
			"sweep the default strategy set and print the overhead/debug-time Pareto frontier")
		refine = flag.String("refine", "",
			"replay this bug report and derive the next plan generation from the search's blame")
		topK = flag.Int("topk", pathlog.DefaultRefineTopK,
			"blowup branches promoted by -refine")
		refineRuns   = flag.Int("refine-runs", 2000, "replay run budget for -refine")
		refineBudget = flag.Duration("refine-budget", 30*time.Second,
			"replay wall-clock budget for -refine")
		storeDir = flag.String("store", "",
			"plan store directory: fold measured history into -frontier, retain -refine results")
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
		plan, err := sess.PlanFor(ctx, m)
		if err != nil {
			fatal(err)
		}
		plans[m.String()] = plan
		fmt.Printf("  %-15s %4d locations (%5.1f%%)  ~%.0f bits/run, ~%.0f replay runs\n",
			m, plan.NumInstrumented(),
			100*float64(plan.NumInstrumented())/float64(total),
			plan.EstimatedOverhead(), plan.EstimatedReplayRuns())
	}

	if *frontier {
		points, err := sess.Frontier(ctx)
		if err != nil {
			fatal(err)
		}
		title := "cost model"
		if *storeDir != "" {
			title = "cost model + measured history from " + *storeDir
		}
		fmt.Printf("\noverhead/debug-time Pareto frontier (%s):\n", title)
		fmt.Printf("  %-40s %6s %12s %12s %9s %11s  %s\n",
			"strategy", "locs", "bits/run", "replay runs", "measured", "drift runs", "fingerprint")
		for _, pt := range points {
			measured, drift := "", "-"
			if pt.Measured {
				measured = "yes"
				drift = fmt.Sprintf("%+.1f", pt.ReplayRunsDrift())
			}
			fmt.Printf("  %-40s %6d %12.1f %12.1f %9s %11s  %s\n",
				pt.Strategy, pt.Plan.NumInstrumented(), pt.Overhead, pt.ReplayRuns,
				measured, drift, pt.Plan.Fingerprint())
		}
	}

	if *refine != "" {
		var rec *pathlog.Recording
		if *storeDir != "" {
			// A store-backed report may be stamped-only: the session resolves
			// the retained plan by fingerprint (with its store cross-checks),
			// then the result validates like any embedded plan.
			if rec, err = pathlog.LoadRecording(*refine); err != nil {
				fatal(err)
			}
			if rec, err = sess.ResolveRecording(rec); err != nil {
				fatal(err)
			}
			if err := rec.Validate(s.Prog); err != nil {
				fatal(err)
			}
		} else if rec, err = pathlog.LoadRecordingFor(*refine, s.Prog); err != nil {
			fatal(err)
		}
		fmt.Printf("\nrefining plan %s (generation %d, %d locations) from %s\n",
			rec.Fingerprint, rec.Plan.Generation, rec.Plan.NumInstrumented(), *refine)
		rsess := pathlog.SessionOf(s, pathlog.WithReplayBudget(*refineRuns, *refineBudget))
		res, err := rsess.Replay(ctx, rec)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("replay: reproduced=%v in %d runs (%s)\n",
			res.Reproduced, res.Runs, res.Elapsed.Round(time.Millisecond))
		k := *topK
		if k <= 0 {
			k = pathlog.DefaultRefineTopK
		}
		refined, err := sess.RefineWith(ctx, rec, res, k)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("generation %d plan %s: %d locations (%+d), ~%.0f bits/run, ~%.0f replay runs (calibrated)\n",
			refined.Generation, refined.Fingerprint(), refined.NumInstrumented(),
			refined.NumInstrumented()-rec.Plan.NumInstrumented(),
			refined.EstimatedOverhead(), refined.EstimatedReplayRuns())
		for _, id := range res.Profile.TopBlowup(k, rec.Plan.Instrumented) {
			b := s.Prog.Branches[id]
			bc := res.Profile.Branch(id)
			fmt.Printf("  promoted b%-5d %-30s forks=%d aborted=%d solver=%d\n",
				id, fmt.Sprintf("%s@%s:%d", b.Func, b.Pos.Unit, b.Pos.Line),
				bc.Forks, bc.AbortedRuns, bc.SolverCalls)
		}
		if *planOut != "" {
			if err := refined.Save(*planOut); err != nil {
				fatal(err)
			}
			fmt.Printf("refined plan written to %s\n", *planOut)
		}
	} else if *planOut != "" {
		m, err := instrument.ParseMethod(*method)
		if err != nil {
			fatal(err)
		}
		plan, err := sess.PlanFor(ctx, m)
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
