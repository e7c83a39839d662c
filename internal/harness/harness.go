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
	"strings"
	"time"

	"pathlog"
	"pathlog/internal/core"
	"pathlog/internal/instrument"
	"pathlog/internal/replay"
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
	// FleetDemotionRate is the disagreement-rate threshold the fleet
	// experiment's corpus balance demotes at (0 = the strict
	// zero-disagreement rule; the measured-acceptance gate applies either
	// way).
	FleetDemotionRate float64
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
		AdaptiveTargetRuns:     200,
		AdaptiveMaxGenerations: 4,
		CorpusNoisyReports:     5,
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

// analyze runs both analyses over a scenario's neutral spec through the
// Session API; the context bounds the concolic exploration.
func analyze(ctx context.Context, s *core.Scenario, dynRuns int, libAsSymbolic bool) (instrument.Inputs, error) {
	sess := pathlog.SessionOf(s,
		pathlog.WithDynamicBudget(dynRuns, 0),
		pathlog.WithStaticOptions(static.Options{LibAsSymbolic: libAsSymbolic}))
	return sess.Analyze(ctx)
}

// record performs one user-site run under an explicit plan through the
// Session API.
func record(ctx context.Context, s *core.Scenario, plan *instrument.Plan) (*replay.Recording, *core.RecordStats, error) {
	return pathlog.SessionOf(s).RecordWith(ctx, plan, nil)
}

// measure averages the user-site wall time under a plan through the Session
// API.
func measure(ctx context.Context, s *core.Scenario, plan *instrument.Plan, rounds int) (time.Duration, *core.RecordStats, error) {
	return pathlog.SessionOf(s).MeasureOverhead(ctx, plan, rounds)
}

// replay reproduces a recording under the Config's replay budget through the
// Session API.
func (c Config) replay(ctx context.Context, s *core.Scenario, rec *replay.Recording) (*replay.Result, error) {
	sess := pathlog.SessionOf(s,
		pathlog.WithReplayBudget(c.ReplayMaxRuns, c.ReplayBudget))
	return sess.Replay(ctx, rec)
}

// staticLibOpts is the §5.3 static configuration: library treated as
// symbolic because the merged sources exceed the points-to analysis.
func staticLibOpts() static.Options { return static.Options{LibAsSymbolic: true} }

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
