// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -exp table3
//	experiments -all
//
// Scale knobs (iterations, request counts, analysis budgets, replay cutoff)
// default to laptop scale; raise them to approach the paper's settings.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pathlog/internal/harness"
)

func main() {
	cfg := harness.DefaultConfig()
	var (
		exp  = flag.String("exp", "", "experiment to run (see -list)")
		all  = flag.Bool("all", false, "run every experiment")
		list = flag.Bool("list", false, "list experiment names")
	)
	flag.Int64Var(&cfg.MicroLoopIters, "loop-iters", cfg.MicroLoopIters,
		"counting-loop iterations (paper: 1e9)")
	flag.IntVar(&cfg.OverheadRounds, "rounds", cfg.OverheadRounds,
		"runs averaged per CPU-time figure")
	flag.IntVar(&cfg.UServerLoadRequests, "requests", cfg.UServerLoadRequests,
		"uServer load requests (paper: 5000)")
	flag.IntVar(&cfg.UServerAnalysisRunsLC, "lc-runs", cfg.UServerAnalysisRunsLC,
		"uServer low-coverage concolic runs (paper: 1 hour)")
	flag.IntVar(&cfg.UServerAnalysisRunsHC, "hc-runs", cfg.UServerAnalysisRunsHC,
		"uServer high-coverage concolic runs (paper: 2 hours)")
	flag.IntVar(&cfg.CoreutilAnalysisRuns, "coreutil-runs", cfg.CoreutilAnalysisRuns,
		"coreutil concolic runs")
	flag.IntVar(&cfg.DiffAnalysisRuns, "diff-runs", cfg.DiffAnalysisRuns,
		"diff concolic runs (low by design: §5.4 reports 20% coverage)")
	flag.IntVar(&cfg.ReplayMaxRuns, "replay-runs", cfg.ReplayMaxRuns,
		"replay run budget")
	flag.DurationVar(&cfg.ReplayBudget, "replay-budget", cfg.ReplayBudget,
		"replay wall-clock budget (the paper's 1-hour cutoff)")
	flag.IntVar(&cfg.AdaptiveTargetRuns, "adaptive-target-runs", cfg.AdaptiveTargetRuns,
		"replay-run target a generation of the adaptive experiment must meet")
	flag.IntVar(&cfg.AdaptiveMaxGenerations, "adaptive-max-generations", cfg.AdaptiveMaxGenerations,
		"refinement steps the adaptive experiment may take")
	flag.StringVar(&cfg.AdaptiveTrajectoryOut, "adaptive-trajectory-out", cfg.AdaptiveTrajectoryOut,
		"write the adaptive experiment's per-generation trajectory JSON here")
	flag.StringVar(&cfg.AdaptiveProfileOut, "adaptive-profile-out", cfg.AdaptiveProfileOut,
		"write the adaptive experiment's final search profile JSON here")
	flag.StringVar(&cfg.StoreDir, "store-dir", cfg.StoreDir,
		"plan store directory for the store experiment (left populated; empty = temp dir)")
	flag.IntVar(&cfg.CorpusNoisyReports, "corpus-noisy", cfg.CorpusNoisyReports,
		"duplicate noisy reports in the corpus experiment")
	flag.IntVar(&cfg.CorpusShards, "corpus-shards", cfg.CorpusShards,
		"shards the corpus experiment replays over")
	flag.IntVar(&cfg.CorpusTargetRuns, "corpus-target-runs", cfg.CorpusTargetRuns,
		"corpus-mean replay-run target (0 = adaptive-target-runs)")
	flag.StringVar(&cfg.CorpusDir, "corpus-dir", cfg.CorpusDir,
		"directory for the corpus experiment's reports and store (left populated; empty = temp dir)")
	flag.StringVar(&cfg.CorpusTrajectoryOut, "corpus-trajectory-out", cfg.CorpusTrajectoryOut,
		"write the corpus experiment's per-generation trajectory JSON here")
	flag.StringVar(&cfg.CorpusProfileOut, "corpus-profile-out", cfg.CorpusProfileOut,
		"write the corpus experiment's final merged search profile JSON here")
	flag.IntVar(&cfg.FleetSites, "fleet-sites", cfg.FleetSites,
		"concurrent simulated user sites in the fleet experiment")
	flag.IntVar(&cfg.FleetReportsPerSite, "fleet-reports", cfg.FleetReportsPerSite,
		"reports each fleet site ships (duplicate-heavy mix)")
	flag.StringVar(&cfg.FleetDir, "fleet-dir", cfg.FleetDir,
		"directory for the fleet experiment's store and intake journal (left populated; empty = temp dir)")
	flag.StringVar(&cfg.FleetMetricsOut, "fleet-metrics-out", cfg.FleetMetricsOut,
		"write the fleet daemon's final /metrics snapshot JSON here")
	flag.Float64Var(&cfg.FleetDemotionRate, "fleet-demotion-rate", cfg.FleetDemotionRate,
		"disagreement-rate demotion threshold for the fleet balance (0 = strict)")
	flag.IntVar(&cfg.FleetReplayWorkers, "fleet-replay-workers", cfg.FleetReplayWorkers,
		"shard worker daemons the fleetreplay experiment balances over (floor 3)")
	flag.StringVar(&cfg.FleetReplayWorkerCmd, "fleet-replay-worker-cmd", cfg.FleetReplayWorkerCmd,
		"prebuilt cmd/shardworkerd binary for the fleetreplay experiment; empty builds one")
	flag.StringVar(&cfg.FleetReplayJournalOut, "fleet-replay-journal-out", cfg.FleetReplayJournalOut,
		"write the fleetreplay runner's event stream JSONL here")
	flag.StringVar(&cfg.FleetReplayMetricsOut, "fleet-replay-metrics-out", cfg.FleetReplayMetricsOut,
		"write the fleetreplay runner's final counters JSON here")
	flag.StringVar(&cfg.TraceFleetDir, "tracefleet-dir", cfg.TraceFleetDir,
		"directory for the tracefleet experiment's store, reports and per-process traces (left populated; empty = temp dir)")
	flag.StringVar(&cfg.TraceFleetTraceOut, "tracefleet-trace-out", cfg.TraceFleetTraceOut,
		"write the tracefleet experiment's merged cross-process span JSONL here")
	flag.StringVar(&cfg.TraceFleetMetricsOut, "tracefleet-metrics-out", cfg.TraceFleetMetricsOut,
		"write the tracefleet daemons' Prometheus /metrics scrapes here")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case *list:
		for _, name := range harness.Experiments {
			fmt.Println(name)
		}
	case *all:
		start := time.Now()
		if err := cfg.RunAll(ctx, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Printf("all experiments completed in %s\n", time.Since(start).Round(time.Millisecond))
	case *exp != "":
		if err := cfg.Run(ctx, *exp, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}
