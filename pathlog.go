// Package pathlog reproduces the system of "Striking a New Balance Between
// Program Instrumentation and Debugging Time" (Crameri, Bianchini,
// Zwaenepoel — EuroSys 2011): partial branch logging for privacy-preserving
// bug reporting, with log-guided symbolic execution for bug reproduction.
//
// The workflow mirrors the paper end to end, driven through a Session built
// with functional options. Instrumentation decisions are first-class
// strategies: built-ins (Dynamic, Static, All, None) compose through
// combinators (Union, Budgeted), and each method of §2.3 names a fixed
// composition (StrategyForMethod):
//
//	prog, _ := pathlog.Compile(
//		pathlog.Unit{Name: "app.mc", Source: src},
//	)
//	s := pathlog.NewSession(prog, spec,
//		pathlog.WithStrategy(pathlog.Union(pathlog.Dynamic(), pathlog.StaticResidue())),
//		pathlog.WithSyscallLog(),
//		pathlog.WithDynamicBudget(200, 0),
//		pathlog.WithReplayBudget(2000, time.Minute),
//	)
//
//	// Pre-deployment: label branches with dynamic and/or static analysis
//	// (§2), then sweep strategies for the paper's titular balance — each
//	// plan records and replays the session's workload, and the Pareto
//	// frontier of (measured bits per run, measured replay runs) remains.
//	points, _ := s.Frontier(ctx)
//	for _, pt := range points {
//		fmt.Printf("%-28s %6.0f bits/run  %4.0f replay runs\n",
//			pt.Strategy, pt.Overhead, pt.ReplayRuns)
//	}
//	plan := points[0].Plan         // pick a balance point ...
//	_ = plan.Save("app.plan.json") // ... and ship it (Fingerprint-stamped)
//
//	// User site: the instrumented run logs one bit per instrumented
//	// branch; a crash yields a bug report with no input bytes in it.
//	rec, stats, _ := s.RecordWith(ctx, plan, userInput)
//
//	// Developer site: reproduce the bug from the partial branch log (§3).
//	// Replay refuses a plan/recording/program mismatch.
//	res, err := s.Replay(ctx, rec)
//	if err == nil && res.Reproduced { fmt.Println(res.InputBytes) }
//
//	// Or close the paper's feedback loop: when replay takes too long,
//	// AutoBalance promotes the branches the search blames
//	// (ReplayResult.Profile) into the next plan generation and redeploys
//	// until the replay budget is met, then demotes bits the measurement
//	// shows do not pay — RefineCorpus is the single step, over a corpus
//	// of one report or many.
//	tr, _ := s.AutoBalance(ctx, userInput, pathlog.BalanceOptions{
//		TargetReplayRuns: 200, MaxGenerations: 4,
//	})
//	for _, pt := range tr.Points {
//		fmt.Printf("gen %d: %.0f bits, %.0f replay runs, +%d/-%d\n",
//			pt.Generation, pt.MeanOverheadBits, pt.MeanReplayRuns,
//			len(pt.Promoted), len(pt.Demoted))
//	}
//	plan := tr.Final().Plan // lineage-stamped: Generation, Parent
//
// For real deployments, WithPlanStore(dir) backs the session with an
// on-disk plan store: every deployed or refined plan is retained under its
// fingerprint, recordings can ship as stamped-only reference envelopes
// (Recording.SaveRef) that Replay resolves back to the exact retained plan
// generation, AutoBalance and Frontier persist each plan's measured
// (overhead, debug-time) point, and later Frontier sweeps — even in a cold
// session — fold that history back in: refined generations no sweep
// proposes compete for the frontier next to the swept plans.
//
// A deployed system receives a stream of bug reports, not one: IngestCorpus
// turns a directory of reports into a deduplicated, weighted Corpus
// (frequency × recency), Session.ReplayCorpus replays it over N shards
// (in-process or on cmd/shardworkerd daemons) with every shard profile
// verified at the merge point, and Session.CorpusBalance iterates the
// balance loop over the population — promoting the population-wide blowup
// branches until the weighted corpus-mean replay meets the target, then
// demoting branches whose bits never once constrained any member's search,
// with each demotion accepted only when re-measurement confirms it
// (strictly fewer logged bits, every report still reproducing).
// AutoBalance is the same loop over a one-report corpus.
//
// Cancellation and deadlines flow through the context: a cancelled analyze
// or replay returns promptly with partial results, and the classic
// MaxRuns/TimeBudget bounds remain available as options.
//
// Programs under test are written in MiniC, a small C-like language
// interpreted by a VM with branch hooks (the substitution this reproduction
// makes for CIL-instrumented native C; see DESIGN.md). The benchmark
// programs of the paper's evaluation — mkdir, mknod, mkfifo, paste, the
// uServer, diff and the microbenchmarks — live in internal/apps, and the
// experiment harness that regenerates every table and figure lives in
// internal/harness (driven by cmd/experiments).
package pathlog

import (
	"pathlog/internal/apps"
	"pathlog/internal/concolic"
	"pathlog/internal/core"
	"pathlog/internal/instrument"
	"pathlog/internal/lang"
	"pathlog/internal/replay"
	"pathlog/internal/static"
	"pathlog/internal/store"
	"pathlog/internal/world"
)

// Unit is one MiniC source unit. Lib units count as library code for the
// app/library split in branch statistics and for the treat-library-as-
// symbolic static-analysis mode.
type Unit struct {
	Name   string
	Lib    bool
	Source string
}

// Compile parses and links MiniC units into an executable Program.
func Compile(units ...Unit) (*Program, error) {
	parsed := make([]*lang.Unit, 0, len(units))
	for _, u := range units {
		region := lang.RegionApp
		if u.Lib {
			region = lang.RegionLib
		}
		pu, err := lang.ParseUnit(u.Name, region, u.Source)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, pu)
	}
	return lang.Link(parsed)
}

// Core model types. These are aliases into the implementation packages so
// that the full functionality documented there is available through this
// facade.
type (
	// Program is a linked MiniC program.
	Program = lang.Program
	// BranchID identifies a branch location in a program.
	BranchID = lang.BranchID
	// Scenario binds a program to an input space and a user execution:
	// plain data (name, program, spec, user bytes) that SessionOf turns
	// into a Session. The bundled scenarios come from internal/apps.
	Scenario = apps.Scenario
	// RecordStats quantifies one user-site run (instrumentation overhead).
	RecordStats = core.RecordStats
	// Spec declares a scenario's symbolic input streams and workload.
	Spec = world.Spec
	// Stream is one symbolic input byte region.
	Stream = world.Stream
	// Recording is a bug report: plan, branch bitvector, optional syscall
	// results, crash site — never input bytes.
	Recording = replay.Recording
	// ReplayOptions bound reproduction effort (the 1-hour cutoff, scaled).
	ReplayOptions = replay.Options
	// ReplayResult is a reproduction attempt's outcome.
	ReplayResult = replay.Result
	// DynamicOptions bound the concolic analysis (the coverage knob).
	DynamicOptions = concolic.Options
	// DynamicReport carries branch labels from the concolic analysis.
	DynamicReport = concolic.Report
	// StaticOptions configure the dataflow/points-to analysis.
	StaticOptions = static.Options
	// StaticReport carries symbolic-branch labels from static analysis.
	StaticReport = static.Report
	// Method selects an instrumentation strategy (§2.3).
	Method = instrument.Method
	// Plan is the instrumented-branch set retained by the developer.
	Plan = instrument.Plan
	// Inputs carries analysis results into plan construction.
	Inputs = instrument.Inputs
	// Strategy decides which branch locations to instrument; strategies
	// compose through Union and Budgeted.
	Strategy = instrument.Strategy
	// PlanContext carries the program and analysis results a Strategy
	// consults.
	PlanContext = instrument.PlanContext
	// CostEstimate is a plan's modeled record overhead.
	CostEstimate = instrument.CostEstimate
	// PlanStore is the on-disk plan, lineage and measured-point store
	// backing WithPlanStore (see internal/store).
	PlanStore = store.Store
	// MeasuredPoint is one persisted (overhead, debug-time) observation of
	// a deployed plan on a workload.
	MeasuredPoint = store.MeasuredPoint
	// LineageEntry is one retained plan's position in its program's
	// refinement chains, from a plan store's lineage index.
	LineageEntry = store.LineageEntry
	// StoreScanReport summarizes a plan store scan: retained plans,
	// measured points, and damaged entries that were skipped.
	StoreScanReport = store.ScanReport
)

// Strategy constructors and combinators, re-exported from
// internal/instrument. Each Method names a fixed composition:
// MethodDynamicStatic == Union(Dynamic(), StaticResidue()).
var (
	// Dynamic instruments branches the concolic analysis labeled symbolic.
	Dynamic = instrument.Dynamic
	// Static instruments branches the static analysis labeled symbolic.
	Static = instrument.Static
	// StaticResidue instruments statically-symbolic branches the dynamic
	// analysis never visited (static's share of the combined method).
	StaticResidue = instrument.StaticResidue
	// All instruments every branch location.
	All = instrument.All
	// None is the uninstrumented baseline.
	None = instrument.None
	// Union instruments what any inner strategy instruments.
	Union = instrument.Union
	// Budgeted keeps the top-k branches of a strategy by symbolic
	// executions per logged bit.
	Budgeted = instrument.Budgeted
	// StrategyForMethod returns the composition a Method names: the same
	// strategy, plan and label as building that composition directly.
	StrategyForMethod = instrument.StrategyForMethod
	// Refine returns the strategy deriving the next plan generation from a
	// base plan, the replay search profile measured under it and the
	// decided promote and demote sets (see Session.RefineCorpus for one
	// step and Session.AutoBalance for the driven loop).
	Refine = instrument.Refine
	// LoadSearchProfile reads a search profile saved with
	// SearchProfile.Save (cmd/replay -profile-out writes them).
	LoadSearchProfile = instrument.LoadSearchProfile
	// LoadPlan reads a plan saved with Plan.Save, verifying its
	// fingerprint.
	LoadPlan = instrument.LoadPlan
	// LoadRecording reads a saved bug report (envelope version 1, 2 or 3).
	LoadRecording = replay.LoadRecording
	// LoadRecordingFor reads a saved bug report and validates it against
	// the program it will be replayed on.
	LoadRecordingFor = replay.LoadRecordingFor
	// OpenPlanStore opens (creating if needed) the plan store rooted at a
	// directory; Session WithPlanStore does this lazily, this is for tools
	// that inspect a store directly.
	OpenPlanStore = store.Open
)

// Plan store errors, for errors.Is tests at CLI and store-scan layers.
var (
	// ErrPlanNotFound reports a recording fingerprint stamp that matches no
	// plan retained in the store.
	ErrPlanNotFound = store.ErrPlanNotFound
	// ErrPlanCorrupt marks a damaged plan file (truncated or edited JSON,
	// content that no longer hashes to its fingerprint).
	ErrPlanCorrupt = instrument.ErrPlanCorrupt
)

// Instrumentation methods (§2.3).
const (
	MethodNone          = instrument.MethodNone
	MethodDynamic       = instrument.MethodDynamic
	MethodStatic        = instrument.MethodStatic
	MethodDynamicStatic = instrument.MethodDynamicStatic
	MethodAll           = instrument.MethodAll
)

// Methods lists the instrumented methods in the paper's order.
var Methods = instrument.Methods

// DefaultRefineTopK is the default promotion width of one refinement step.
const DefaultRefineTopK = instrument.DefaultRefineTopK

// Stream constructors.
var (
	// ArgStream declares argv[i] as symbolic input.
	ArgStream = world.ArgSpec
	// FileStream declares a file's contents as symbolic input.
	FileStream = world.FileSpec
	// ConnStream declares a client connection's payload as symbolic input.
	ConnStream = world.ConnSpec
)

// StripSyscallLog returns a copy of a recording without its syscall-result
// log, for replaying under the symbolic syscall models of §3.3 (the
// "without logging system calls" experiments, Tables 5 and 8). The trace
// and crash site are shared with rec.
func StripSyscallLog(rec *Recording) *Recording {
	cp := *rec
	cp.SysLog = nil
	return &cp
}
