// Command tune drives the adaptive refinement loop end to end: starting
// from a cheap instrumentation strategy, it records the named scenario's
// crashing run, replays it, and — while the replay budget is not met —
// promotes the branches the search blames into the next plan generation
// and goes again (the paper's deploy → too slow → instrument more →
// redeploy workflow, automated). Once the budget is met it demotes the
// logged branches whose bits never constrained the search, keeping each
// demotion only when the re-recorded, re-replayed report confirms it.
//
// With -store, the loop runs against a plan store: every generation's plan
// is retained under its fingerprint as it is deployed, each generation's
// measured (overhead, replay) point is appended to the store's history for
// this scenario, and a later tune over the same store resumes from the
// retained chain head instead of redeploying generation 0. cmd/analyze
// -store then folds the measured history into its frontier sweep.
//
// With -corpus, tune refines against a whole directory of bug reports
// instead of the latest crash: the reports are deduplicated and weighted
// (frequency × recency), replayed over -shards shards (in-process, or over
// a shard worker fleet with -workers host:port,...; a loopback
// shardworkerd -listen 127.0.0.1:0 covers the local out-of-process case),
// and one weighted refinement step is derived from the merged
// attribution — corpus-wide blowup branches promoted, branches whose bits
// never constrained any report's search demoted. A directory holding one
// report is the single-report step. Redeploy the printed plan and run
// tune -corpus on the fresh reports to confirm the demotion by
// measurement.
//
// With -corpus -intake, the directory is a pathlogd intake directory
// instead of loose report files: members come from the program's
// newest-generation report bucket, with each stored report's dedupe
// counter as its frequency — a crash POSTed a thousand times weighs like a
// thousand files without a thousand files existing.
//
// With -trace-out, the whole run is traced: a root "tune" span opens one
// trace ID that every balance generation parents under, and the
// X-Pathlog-Trace header carries it to the -workers shard daemons and the
// -report-to intake daemon — one invocation, one span tree across three
// processes. Each daemon appends its own spans via its -trace flag;
// concatenating the JSONL files reassembles the tree.
//
// Usage:
//
//	tune -scenario userver-exp3 -strategy dynamic -target-runs 200
//	tune -scenario userver-exp3 -trajectory-out traj.json -plan-out final.plan.json
//	tune -scenario userver-exp3 -store ./planstore -target-runs 200
//	tune -scenario userver-exp3 -corpus ./one-report -plan-out gen1.plan.json
//	tune -scenario userver-exp3 -store ./planstore -corpus ./reports -shards 4 -plan-out next.plan.json
//	tune -scenario userver-exp3 -store ./planstore -corpus ./intake -intake -shards 4
//	tune -scenario userver-exp3 -store ./planstore -corpus ./reports -workers 10.0.0.1:7070,10.0.0.2:7070
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"pathlog"
	"pathlog/internal/apps"
	"pathlog/internal/instrument"
	"pathlog/internal/obs"
	"pathlog/internal/static"
)

func main() {
	var (
		scenario = flag.String("scenario", "", "scenario name (cmd/record -list shows names)")
		strategy = flag.String("strategy", "dynamic",
			"starting strategy: none, dynamic, static, static-residue, dynamic+static, all")
		dynRuns = flag.Int("dynamic-runs", 10,
			"concolic analysis budget for the starting plan (low coverage makes the loop earn its keep)")
		targetRuns = flag.Int("target-runs", 0,
			"replay-run target; 0 means 'reproduce within the replay budget at all'")
		targetTime = flag.Duration("target-time", 0, "replay wall-clock target (0 = none)")
		maxGens    = flag.Int("max-generations", pathlog.DefaultMaxGenerations,
			"refinement steps before giving up")
		ceiling = flag.Float64("overhead-ceiling", 0,
			"stop before deploying a plan estimated above this many bits/run (0 = none)")
		topK = flag.Int("topk", pathlog.DefaultRefineTopK,
			"blowup branches promoted per generation")
		maxRuns = flag.Int("replay-runs", 2000, "per-generation replay run budget")
		budget  = flag.Duration("replay-budget", 30*time.Second,
			"per-generation replay wall-clock budget")
		fleetWorkers = flag.String("workers", "",
			"comma-separated shard worker daemons (host:port, cmd/shardworkerd) to fan corpus shards out over")
		trajOut = flag.String("trajectory-out", "",
			"write the per-generation trajectory JSON to this file")
		planOut = flag.String("plan-out", "", "save the final generation's plan to this file")
		profOut = flag.String("profile-out", "",
			"write the final generation's replay search profile JSON to this file")
		storeDir = flag.String("store", "",
			"plan store directory: retain every generation and append measured points")
		corpusDir = flag.String("corpus", "",
			"refine against a directory of bug reports (record ×N) instead of the latest crash: one weighted corpus refinement step")
		corpusShards = flag.Int("shards", 1,
			"shards the corpus replay fans out over (with -corpus)")
		intakeMode = flag.Bool("intake", false,
			"treat -corpus as a pathlogd intake directory: members come from the newest-generation report bucket, dedupe counters feed member frequency")
		traceOut = flag.String("trace-out", "",
			"append this run's spans as JSONL to this file (empty = tracing off); the whole run shares one trace ID that -workers daemons and -report-to intake inherit")
		reportTo = flag.String("report-to", "",
			"with -corpus: POST every ingested report file to this pathlogd base URL before replaying, propagating the run's trace header")
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
	strat, err := parseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}
	an := apps.AnalysisScenarioFor(*scenario, s)
	sessOpts := []pathlog.Option{
		pathlog.WithAnalysisSpec(an.Spec),
		pathlog.WithDynamicBudget(*dynRuns, 0),
		pathlog.WithStaticOptions(static.Options{LibAsSymbolic: true}),
		pathlog.WithSyscallLog(),
		pathlog.WithStrategy(strat),
		pathlog.WithReplayBudget(*maxRuns, *budget),
	}
	if *storeDir != "" {
		sessOpts = append(sessOpts, pathlog.WithPlanStore(*storeDir))
	}
	observer := &obs.Observer{Reg: obs.NewRegistry()}
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		observer.Trace = obs.NewTracer(f, "tune")
	}
	sessOpts = append(sessOpts, pathlog.WithObserver(observer))
	sess := pathlog.SessionOf(s, sessOpts...)

	// The root span: every balance generation — and, over the wire, every
	// worker shard and intake ingest — parents under this one trace.
	ctx, root := observer.Tracer().StartSpan(ctx, "tune")
	root.SetAttr("scenario", *scenario)

	var hosts []string
	if *fleetWorkers != "" {
		for _, h := range strings.Split(*fleetWorkers, ",") {
			if h = strings.TrimSpace(h); h != "" {
				hosts = append(hosts, h)
			}
		}
		if len(hosts) == 0 {
			fatal(fmt.Errorf("-workers names no hosts"))
		}
	}

	if *corpusDir != "" {
		ok := tuneCorpus(ctx, sess, observer, *corpusDir, *intakeMode, *reportTo, *corpusShards, hosts,
			*topK, *planOut, *profOut)
		root.End()
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *intakeMode {
		fatal(fmt.Errorf("-intake needs -corpus (the intake directory)"))
	}
	if *reportTo != "" {
		fatal(fmt.Errorf("-report-to forwards corpus reports — it needs -corpus"))
	}
	if len(hosts) > 0 {
		fatal(fmt.Errorf("-workers fans out corpus shards — it needs -corpus"))
	}

	fmt.Printf("tuning %s from strategy %s (target: %s)\n",
		*scenario, strat.Name(), describeTarget(*targetRuns, *targetTime))
	fmt.Printf("  %-4s %-44s %6s %10s %12s %10s %6s %7s\n",
		"gen", "strategy", "locs", "bits/run", "replay runs", "time", "repro", "+/-")
	tr, err := sess.AutoBalance(ctx, nil, pathlog.BalanceOptions{
		TargetReplayRuns: *targetRuns,
		TargetReplayTime: *targetTime,
		MaxGenerations:   *maxGens,
		OverheadCeiling:  *ceiling,
		TopK:             *topK,
		OnGeneration: func(pt pathlog.BalancePoint) {
			fmt.Printf("  %-4d %-44s %6d %10.0f %12.0f %10s %6v %7s\n",
				pt.Generation, truncate(pt.Plan.Strategy, 44), pt.Plan.NumInstrumented(),
				pt.MeanOverheadBits, pt.MeanReplayRuns,
				time.Duration(pt.MeanReplayMS*float64(time.Millisecond)),
				pt.Reproduced == pt.Members,
				fmt.Sprintf("+%d/-%d", len(pt.Promoted), len(pt.Demoted)))
		},
	})
	if err != nil {
		fatal(err)
	}
	if tr.Converged {
		fmt.Printf("converged: %s\n", tr.Reason)
	} else {
		fmt.Printf("NOT converged: %s\n", tr.Reason)
	}
	final := tr.Final()
	if final == nil {
		fatal(fmt.Errorf("empty trajectory"))
	}
	fmt.Printf("final plan: generation %d, %d locations, fingerprint %s\n",
		final.Plan.Generation, final.Plan.NumInstrumented(), final.Plan.Fingerprint())
	if *storeDir != "" {
		st, err := sess.PlanStore()
		if err != nil {
			fatal(err)
		}
		rep, err := st.Scan()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("store %s: %d plan(s) retained, %d measured point(s), %d damaged entr(ies)\n",
			*storeDir, rep.Plans, rep.MeasuredPoints, len(rep.Damaged))
	}

	if *trajOut != "" {
		if err := tr.Save(*trajOut); err != nil {
			fatal(err)
		}
		fmt.Printf("trajectory written to %s\n", *trajOut)
	}
	if *planOut != "" {
		if err := final.Plan.Save(*planOut); err != nil {
			fatal(err)
		}
		fmt.Printf("plan written to %s\n", *planOut)
	}
	if *profOut != "" && final.Outcome.Profile != nil {
		if err := final.Outcome.Profile.Save(*profOut); err != nil {
			fatal(err)
		}
		fmt.Printf("search profile written to %s\n", *profOut)
	}
	root.End()
	if !tr.Converged {
		os.Exit(1)
	}
}

// tuneCorpus runs one weighted corpus refinement step: ingest the report
// directory, replay the whole population over the shard configuration,
// and derive the next plan generation — corpus-wide blowup branches
// promoted, proven-redundant branches demoted. Measured verification of
// the demotion happens at the next deployment: record fresh reports under
// the printed plan and run tune -corpus again. It returns false when the
// population is not yet within the replay budget (the scripted-loop
// "redeploy and iterate" signal).
func tuneCorpus(ctx context.Context, sess *pathlog.Session, observer *obs.Observer, dir string, intakeMode bool, reportTo string, shards int, hosts []string,
	topK int, planOut, profOut string) bool {
	var c *pathlog.Corpus
	var err error
	if intakeMode {
		var info *pathlog.IntakeBucketInfo
		c, info, err = pathlog.IngestIntake(dir, pathlog.ProgramHash(sess.Program()), pathlog.CorpusIngestOptions{})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("intake bucket: plan %s generation %d — %d stored report(s) standing for %d accepted\n",
			info.Fingerprint, info.Generation, info.Stored, info.Accepted)
	} else {
		c, err = pathlog.IngestCorpus(dir, pathlog.CorpusIngestOptions{})
		if err != nil {
			fatal(err)
		}
	}
	fmt.Printf("corpus %s: %d member(s) from %s\n", c.Identity(), len(c.Reports), dir)
	fmt.Printf("  %-34s %5s %7s %10s %s\n", "signature", "count", "weight", "bits", "newest")
	for _, rep := range c.Reports {
		fmt.Printf("  %-34s %5d %7.3f %10d %s\n",
			rep.Signature, rep.Count, rep.Weight, rep.Rec.Trace.Len(),
			rep.Newest.Format(time.RFC3339))
	}
	if reportTo != "" {
		if err := publishCorpus(ctx, observer, reportTo, c); err != nil {
			fatal(err)
		}
	}
	if len(hosts) > 0 {
		fmt.Printf("fanning shards out over %d remote worker(s): %s\n",
			len(hosts), strings.Join(hosts, ", "))
	}
	ref, err := sess.RefineCorpus(ctx, c, pathlog.CorpusOptions{
		Shards: shards, Workers: hosts, TopK: topK,
	})
	if err != nil {
		fatal(err)
	}
	out := ref.Outcome
	fmt.Printf("corpus replay (%d shard(s)): %d/%d reproduced, weighted mean %.1f runs (max %d), mean %.0fms\n",
		out.Shards, out.Reproduced, out.Members, out.MeanRuns, out.MaxRuns, out.MeanWallMS)
	fmt.Printf("promoted %d blowup branch(es): %s\n", len(ref.Promoted), branchIDs(ref.Promoted))
	fmt.Printf("demoted %d redundant branch(es): %s\n", len(ref.Demoted), branchIDs(ref.Demoted))
	if ref.Plan.Fingerprint() == ref.Base.Fingerprint() {
		fmt.Println("fixed point: the corpus profile changes nothing — the plan already fits the population")
	} else {
		fmt.Printf("next generation %d: %d locations, ~%.0f bits/run estimated, fingerprint %s\n",
			ref.Plan.Generation, ref.Plan.NumInstrumented(), ref.Plan.EstimatedOverhead(), ref.Plan.Fingerprint())
		fmt.Println("redeploy it (record -plan / -store) and tune -corpus on the fresh reports to confirm the demotion by measurement")
	}
	if planOut != "" {
		if err := ref.Plan.Save(planOut); err != nil {
			fatal(err)
		}
		fmt.Printf("plan written to %s\n", planOut)
	}
	if profOut != "" && out.Profile != nil {
		if err := out.Profile.Save(profOut); err != nil {
			fatal(err)
		}
		fmt.Printf("merged corpus profile written to %s\n", profOut)
	}
	if out.Reproduced != out.Members {
		// Mirror tune's convergence exit: nonzero while the population is
		// not yet within the replay budget, so scripted loops know to
		// redeploy and iterate.
		fmt.Printf("corpus not yet within the replay budget (%d/%d reproduced) — redeploy and iterate\n",
			out.Reproduced, out.Members)
		return false
	}
	fmt.Println("corpus replays within the budget under the current plan")
	return true
}

// publishCorpus mirrors the ingested report files into a pathlogd intake
// over HTTP: every duplicate file is POSTed as-is to <base>/report with
// the run's trace propagated, so the daemon's intake.ingest spans join
// this tune invocation's trace.
func publishCorpus(ctx context.Context, observer *obs.Observer, base string, c *pathlog.Corpus) error {
	pctx, span := observer.Tracer().StartSpan(ctx, "corpus.publish")
	defer span.End()
	base = strings.TrimRight(base, "/")
	client := &http.Client{Timeout: 30 * time.Second}
	posted := 0
	for _, rep := range c.Reports {
		for _, path := range rep.Paths {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			req, err := http.NewRequestWithContext(pctx, http.MethodPost, base+"/report", bytes.NewReader(data))
			if err != nil {
				return err
			}
			req.Header.Set("Content-Type", "application/json")
			obs.Inject(pctx, req.Header)
			resp, err := client.Do(req)
			if err != nil {
				return fmt.Errorf("report %s to %s: %w", filepath.Base(path), base, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
				return fmt.Errorf("report %s: %s answered %s", filepath.Base(path), base, resp.Status)
			}
			posted++
		}
	}
	span.SetAttr("reports", fmt.Sprint(posted))
	fmt.Printf("published %d report file(s) to %s\n", posted, base)
	return nil
}

// branchIDs renders a branch set for the transcript.
func branchIDs(ids []pathlog.BranchID) string {
	if len(ids) == 0 {
		return "none"
	}
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("b%d", id)
	}
	return strings.Join(parts, ",")
}

// parseStrategy maps the CLI spelling to a starting strategy. A method
// spelling plans through the composition the method names, so the plan
// envelope carries the method tag; static-residue is the one spelling that
// names no method.
func parseStrategy(s string) (pathlog.Strategy, error) {
	if s == "static-residue" {
		return pathlog.StaticResidue(), nil
	}
	m, err := instrument.ParseMethod(s)
	if err != nil {
		return nil, fmt.Errorf("unknown strategy %q", s)
	}
	return pathlog.StrategyForMethod(m), nil
}

func describeTarget(runs int, d time.Duration) string {
	switch {
	case runs > 0 && d > 0:
		return fmt.Sprintf("<= %d runs and <= %s", runs, d)
	case runs > 0:
		return fmt.Sprintf("<= %d runs", runs)
	case d > 0:
		return fmt.Sprintf("<= %s", d)
	}
	return "reproduce within the replay budget"
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tune:", err)
	os.Exit(1)
}
