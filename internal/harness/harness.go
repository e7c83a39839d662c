// Package harness regenerates every table and figure of the paper's
// evaluation (§5). Each experiment function returns a Table whose rows
// mirror the corresponding artifact in the paper; cmd/experiments renders
// them, and EXPERIMENTS.md records paper-versus-measured values.
//
// Scale: the paper ran on Xeon testbeds for hours. The harness runs the
// same experiment *structure* at laptop scale — iteration counts, request
// counts and the replay cutoff all come from Config so the shape of every
// result (orderings, ratios, crossovers, ∞ entries) is reproduced in
// seconds. Absolute magnitudes are not comparable and are not meant to be.
package harness

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"pathlog"
	"pathlog/internal/apps"
	"pathlog/internal/instrument"
	"pathlog/internal/static"
)

// Config sets the scale of every experiment. DefaultConfig is used by tests;
// cmd/experiments exposes the knobs as flags.
type Config struct {
	// MicroLoopIters is the counting-loop iteration count (paper: 1e9).
	MicroLoopIters int64
	// OverheadRounds is how many runs are averaged per CPU-time figure on
	// substantial workloads (uServer load, diff).
	OverheadRounds int
	// SmallWorkloadRounds is the round count for microsecond-scale
	// workloads (coreutils, Listing 1), where timing noise would otherwise
	// dominate.
	SmallWorkloadRounds int
	// CoreutilArgLen caps coreutil argument streams (paper: 100 bytes).
	CoreutilArgLen int
	// CoreutilAnalysisRuns is the concolic budget for §5.2 programs.
	CoreutilAnalysisRuns int
	// UServerLoadRequests is the request count for load experiments
	// (Figures 3 and 4; the paper uses 5000 and an httperf load).
	UServerLoadRequests int
	// UServerAnalysisRunsLC / HC are the low/high-coverage concolic budgets
	// of §5.3 (the paper stops after one and two hours).
	UServerAnalysisRunsLC int
	UServerAnalysisRunsHC int
	// DiffAnalysisRuns is the concolic budget for §5.4.
	DiffAnalysisRuns int
	// ReplayMaxRuns and ReplayBudget bound each reproduction attempt; an
	// exhausted budget renders as the paper's ∞.
	ReplayMaxRuns int
	ReplayBudget  time.Duration
	// AdaptiveTargetRuns and AdaptiveMaxGenerations shape the adaptive
	// refinement experiment: the replay-run budget a generation must meet
	// and the refinement steps allowed to get there.
	AdaptiveTargetRuns     int
	AdaptiveMaxGenerations int
	// AdaptiveTrajectoryOut / AdaptiveProfileOut, when set, write the
	// adaptive experiment's per-generation trajectory and final search
	// profile as JSON artifacts (CI uploads them).
	AdaptiveTrajectoryOut string
	AdaptiveProfileOut    string
	// StoreDir, when set, is the plan store directory the store experiment
	// runs against (and leaves populated — an inspectable artifact); empty
	// uses a temporary directory discarded afterwards.
	StoreDir string
	// CorpusNoisyReports is the duplicate count of the corpus experiment's
	// noisy crash report (the burst that would steer a latest-crash loop).
	CorpusNoisyReports int
	// CorpusShards is the shard count of the corpus experiment's replays.
	CorpusShards int
	// CorpusTargetRuns is the corpus-mean replay-run target (0 falls back
	// to AdaptiveTargetRuns).
	CorpusTargetRuns int
	// CorpusDir, when set, is where the corpus experiment leaves its
	// report envelopes and plan store (an inspectable artifact); empty
	// uses a temporary directory discarded afterwards.
	CorpusDir string
	// CorpusTrajectoryOut / CorpusProfileOut, when set, write the corpus
	// experiment's per-generation trajectory and final merged profile as
	// JSON artifacts (CI uploads them).
	CorpusTrajectoryOut string
	CorpusProfileOut    string
	// FleetSites is the number of concurrent simulated user sites the fleet
	// experiment runs against the intake service's HTTP listener.
	FleetSites int
	// FleetReportsPerSite is how many reports each site ships — a
	// duplicate-heavy mix (one blowup report plus identical noisy ones) the
	// ingest dedupe collapses.
	FleetReportsPerSite int
	// FleetDir, when set, is where the fleet experiment leaves its plan
	// store, intake directory (journal + stored reports) and no-restart
	// control directory as inspectable artifacts; empty uses a temporary
	// directory discarded afterwards.
	FleetDir string
	// FleetMetricsOut, when set, writes the daemon's final /metrics
	// snapshot as a JSON artifact (CI uploads it next to the journal).
	FleetMetricsOut string
	// FleetReplayWorkers is how many shard worker daemons the fleetreplay
	// experiment runs its corpus balance over (floor 3 — the chaos kill
	// needs survivors to steal onto).
	FleetReplayWorkers int
	// FleetReplayWorkerCmd, when set, is a prebuilt cmd/shardworkerd
	// binary; empty builds one with the go toolchain.
	FleetReplayWorkerCmd string
	// FleetReplayJournalOut / FleetReplayMetricsOut, when set, write the
	// remote runner's event stream (JSONL) and final counters (JSON) as
	// artifacts (CI uploads them).
	FleetReplayJournalOut string
	FleetReplayMetricsOut string
	// TraceFleetDir, when set, is where the tracefleet experiment leaves
	// its plan store, report files, intake directory and per-process trace
	// JSONLs (an inspectable artifact); empty uses a temp dir discarded
	// afterwards.
	TraceFleetDir string
	// TraceFleetTraceOut, when set, writes the merged cross-process span
	// JSONL — tune, pathlogd and every shardworkerd — as one artifact (CI
	// uploads it).
	TraceFleetTraceOut string
	// TraceFleetMetricsOut, when set, writes both daemons' Prometheus-text
	// /metrics scrapes here, each preceded by a "# scrape <url>" line.
	TraceFleetMetricsOut string

	// an memoises analysis Sessions by key for one Run or RunAll
	// (withAnalyses).
	an *sync.Map
}

// DefaultConfig returns the laptop-scale configuration used by tests.
func DefaultConfig() Config {
	return Config{
		MicroLoopIters:         200_000,
		OverheadRounds:         3,
		SmallWorkloadRounds:    300,
		CoreutilArgLen:         12,
		CoreutilAnalysisRuns:   800,
		UServerLoadRequests:    30,
		UServerAnalysisRunsLC:  6,
		UServerAnalysisRunsHC:  60,
		DiffAnalysisRuns:       40,
		ReplayMaxRuns:          4000,
		ReplayBudget:           20 * time.Second,
		AdaptiveTargetRuns:     20,
		AdaptiveMaxGenerations: 4,
		CorpusNoisyReports:     5,
		CorpusTargetRuns:       5,
		CorpusShards:           2,
		FleetSites:             8,
		FleetReportsPerSite:    8,
		FleetReplayWorkers:     3,
	}
}

// Table is one rendered experiment artifact.
type Table struct {
	ID     string // e.g. "Table 3", "Figure 4a"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends one row, stringifying cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Infinity is the render of an exhausted replay budget (the paper's ∞).
const Infinity = "inf"

// fmtDur renders a duration compactly for table cells.
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%dus", d.Microseconds())
	case d < time.Second:
		return fmt.Sprintf("%dms", d.Milliseconds())
	default:
		return fmt.Sprintf("%.1fs", d.Seconds())
	}
}

// fmtPct renders a ratio as a percentage.
func fmtPct(x float64) string { return fmt.Sprintf("%.0f%%", x*100) }

// withAnalyses returns the Config with a fresh analysis memo, unless it
// already carries one: within one Run or RunAll each scenario family is
// analysed once, however many tables plan from it (the uServer LC and HC
// analyses serve Table 2, Figure 4, Tables 3/4/5/8, Compress and Summary).
func (c Config) withAnalyses() Config {
	if c.an == nil {
		c.an = new(sync.Map)
	}
	return c
}

// analysis returns the analysis Session memoised under key, which names
// the scenario family and its concolic budget. A Session caches its
// analysis and plans, so sharing it shares both. Without a memo (an
// experiment method called directly) every call gets a new Session.
// Analysis Sessions log syscalls: PlanWith gives the plans with the log,
// planFor derives those without it.
func (c Config) analysis(key string, s *apps.Scenario, opts ...pathlog.Option) *pathlog.Session {
	sess := pathlog.SessionOf(s, append(opts, pathlog.WithSyscallLog())...)
	if c.an == nil {
		return sess
	}
	memo, _ := c.an.LoadOrStore(key, sess)
	return memo.(*pathlog.Session)
}

// coreutilAnalysis is the §5.2 analysis of one coreutil over its neutral
// input space.
func (c Config) coreutilAnalysis(s *apps.Scenario) *pathlog.Session {
	return c.analysis(fmt.Sprintf("%s/%d", s.Name, c.CoreutilAnalysisRuns), s,
		pathlog.WithDynamicBudget(c.CoreutilAnalysisRuns, 0))
}

// uServerAnalysis is the §5.3 analysis at one concolic budget (LC or HC).
// Pre-deployment exploration is seeded with developer test requests — the
// paper's engine (Oasis) is "concolic execution driven by test suites",
// and §6 notes that manual test cases boost coverage. The streams stay
// fully symbolic; the seeds only pick the first paths. Static analysis
// cannot process the merged library sources, so it runs on the application
// only and treats every library branch as symbolic.
func (c Config) uServerAnalysis(runs int) *pathlog.Session {
	return c.analysis(fmt.Sprintf("userver/%d", runs), apps.UServerAnalysisScenario(),
		pathlog.WithDynamicBudget(runs, 0),
		pathlog.WithStaticOptions(static.Options{LibAsSymbolic: true}))
}

// uServerSession is the Session the uServer experiments beyond the paper's
// tables (frontier, adaptive, store, corpus, fleet) run a scenario through:
// planned from the §5.3 analysis at a concolic budget (LC or HC), with
// syscall logging on; opts apply on top.
func uServerSession(s *apps.Scenario, runs int, opts ...pathlog.Option) *pathlog.Session {
	return pathlog.SessionOf(s, append([]pathlog.Option{
		pathlog.WithAnalysisSpec(apps.UServerAnalysisSpec()),
		pathlog.WithDynamicBudget(runs, 0),
		pathlog.WithStaticOptions(static.Options{LibAsSymbolic: true}),
		pathlog.WithSyscallLog(),
	}, opts...)...)
}

// diffAnalysis is the §5.4 analysis: diff is input-heavy, so the concolic
// budget achieves only partial coverage (the paper reports 20% after one
// hour) while the full static analysis runs normally.
func (c Config) diffAnalysis() (*pathlog.Session, error) {
	s, err := apps.DiffExperimentScenario(1)
	if err != nil {
		return nil, err
	}
	return c.analysis(fmt.Sprintf("diff/%d", c.DiffAnalysisRuns), s,
		pathlog.WithDynamicBudget(c.DiffAnalysisRuns, 0)), nil
}

// planFor builds method m's plan from an analysis Session's analysis, with
// or without the syscall log. The Session's own plans log syscalls; a plan
// without the log applies the same strategy to the Session's analysis, as
// Session.Frontier applies its sweep.
func planFor(ctx context.Context, an *pathlog.Session, m instrument.Method, logSyscalls bool) (*instrument.Plan, error) {
	strat := pathlog.StrategyForMethod(m)
	if logSyscalls {
		return an.PlanWith(ctx, strat)
	}
	in, err := an.Analyze(ctx)
	if err != nil {
		return nil, err
	}
	return strat.Plan(ctx, instrument.NewPlanContext(an.Program(), in, false))
}

// session builds the Session one table records, measures and replays a
// scenario through, under the Config's replay budget; its plans come from
// an analysis Session.
func (c Config) session(s *apps.Scenario) *pathlog.Session {
	return pathlog.SessionOf(s, pathlog.WithReplayBudget(c.ReplayMaxRuns, c.ReplayBudget))
}

// replayRow is the replay tables' one driver (Tables 1, 3/4, 5/8, 6/7): it
// records the scenario's crash under plan and replays the report, then adds
// the row label plus (replay time, runs, reproduced) to times and, when
// stats is non-nil, the label plus the logged and not-logged symbolic
// branch locations/executions of the reproducing path to stats.
func replayRow(ctx context.Context, sess *pathlog.Session, plan *instrument.Plan, label []string, times, stats *Table) error {
	name := strings.Join(label, "/")
	rec, _, err := sess.RecordWith(ctx, plan, nil)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if rec == nil {
		return fmt.Errorf("%s: user run did not crash", name)
	}
	res, err := sess.Replay(ctx, rec)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	cell := fmtDur(res.Elapsed)
	if !res.Reproduced {
		cell = Infinity
	}
	times.AddRow(append(slices.Clip(label), cell,
		fmt.Sprintf("%d", res.Runs), fmt.Sprintf("%v", res.Reproduced))...)
	if stats != nil {
		logged, notLogged := "-", "-"
		if res.Reproduced {
			logged = fmt.Sprintf("%d / %d", res.SymLoggedLocs, res.SymLoggedExecs)
			notLogged = fmt.Sprintf("%d / %d", res.SymNotLoggedLocs, res.SymNotLoggedExecs)
		}
		stats.AddRow(append(slices.Clip(label), logged, notLogged)...)
	}
	return nil
}

// methodRows replays scenario s under each method's plan from the analysis
// Session, syscall log on, one replayRow per method labelled (first,
// method).
func (c Config) methodRows(ctx context.Context, an *pathlog.Session, s *apps.Scenario, first string, times, stats *Table) error {
	sess := c.session(s)
	for _, m := range instrument.Methods {
		plan, err := planFor(ctx, an, m, true)
		if err != nil {
			return err
		}
		if err := replayRow(ctx, sess, plan, []string{first, m.String()}, times, stats); err != nil {
			return err
		}
	}
	return nil
}

// overheadTable is the CPU-time figures' one driver (Figures 2 and 5, Micro
// 2): it measures the scenario under the uninstrumented baseline, then
// under each method's plan from the analysis Session, one row each.
func overheadTable(ctx context.Context, id, title string, an, sess *pathlog.Session, logSyscalls bool, rounds int) (*Table, error) {
	t := &Table{
		ID:    id,
		Title: title,
		Header: []string{"config", "instr. locations", "cpu time", "rel cpu",
			"proj. native overhead", "logged bits"},
	}
	var baseline time.Duration
	for _, m := range append([]instrument.Method{instrument.MethodNone}, instrument.Methods...) {
		plan, err := planFor(ctx, an, m, logSyscalls)
		if err != nil {
			return nil, err
		}
		avg, stats, err := sess.MeasureOverhead(ctx, plan, rounds)
		if err != nil {
			return nil, err
		}
		if m == instrument.MethodNone {
			baseline = avg
		}
		t.AddRow(m.String(), fmt.Sprintf("%d", plan.NumInstrumented()),
			fmtDur(avg), relCPU(avg, baseline),
			projectedOverhead(stats.TraceBits, stats.Steps),
			fmt.Sprintf("%d", stats.TraceBits))
	}
	return t, nil
}

// branchRow is one Figure 1/3 histogram entry.
type branchRow struct {
	id       int
	execs    int64
	symExecs int64
}

// branchHistogram is the histogram figures' one probe (Figures 1 and 3):
// the paper's "sample run with concrete inputs, recording per-branch
// symbolic/concrete", i.e. one concolic run over the scenario's user
// input, as per-location execution counts in branch order.
func branchHistogram(ctx context.Context, s *apps.Scenario) ([]branchRow, error) {
	spec, err := s.Spec.UserSpec(s.UserBytes)
	if err != nil {
		return nil, err
	}
	in, err := pathlog.SessionOf(s, pathlog.WithAnalysisSpec(spec),
		pathlog.WithDynamicBudget(1, 0)).Analyze(ctx)
	if err != nil {
		return nil, err
	}
	rep := in.Dynamic
	rows := make([]branchRow, 0, len(rep.ExecCount))
	for id, n := range rep.ExecCount {
		rows = append(rows, branchRow{id: int(id), execs: n, symExecs: rep.SymExecCount[id]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	return rows, nil
}

// overheadPct computes (instrumented - baseline) / baseline.
func overheadPct(instrumented, baseline time.Duration) float64 {
	if baseline <= 0 {
		return 0
	}
	return float64(instrumented-baseline) / float64(baseline)
}

// relCPU renders CPU time relative to the uninstrumented baseline, as the
// paper's normalized CPU-time axes do (100% = none).
func relCPU(instrumented, baseline time.Duration) string {
	if baseline <= 0 {
		return "?"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(instrumented)/float64(baseline))
}

// Native-projection model. The VM interprets a MiniC step in ~100ns while a
// logged bit costs a few ns, so measured VM overhead percentages are far
// smaller than the paper's native ones (where a branch costs ~1ns and the
// 17-instruction logging sequence dominates). projectedOverhead rescales the
// measured *work* — logged bits and executed steps — to native cost using
// the paper's own constants: 17 instructions per logged branch (§5.1)
// against an estimated nativeInstrPerStep instructions per MiniC step. The
// ordering across methods is determined by logged bits either way; this
// column makes the magnitudes comparable to the paper's axes.
const (
	logInstrPerBranch  = 17.0
	nativeInstrPerStep = 2.5
)

func projectedOverhead(loggedBits, steps int64) string {
	if steps == 0 {
		return "0%"
	}
	return fmt.Sprintf("+%.0f%%",
		100*logInstrPerBranch*float64(loggedBits)/(nativeInstrPerStep*float64(steps)))
}
