package harness

import (
	"context"
	"fmt"

	"pathlog"
	"pathlog/internal/apps"
	"pathlog/internal/instrument"
	"pathlog/internal/lang"
)

// Figure3 reproduces the uServer branch histogram: per-location execution
// counts split between application and library code. The paper observes ~18M
// executions with ~10% symbolic, 81% of executions in the library but only
// 28% of symbolic executions there.
func (c Config) Figure3(ctx context.Context) (*Table, error) {
	s := apps.UServerLoadScenario(c.UServerLoadRequests, apps.DefaultHTTPRequest)
	rows, err := branchHistogram(ctx, s)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "Figure 3",
		Title:  fmt.Sprintf("uServer branch histogram, %d requests", c.UServerLoadRequests),
		Header: []string{"region", "branch", "where", "execs", "symbolic execs"},
	}
	var total, sym, libExecs, libSym int64
	symLocs := 0
	for _, r := range rows {
		b := s.Prog.Branches[r.id]
		total += r.execs
		sym += r.symExecs
		if b.Region == lang.RegionLib {
			libExecs += r.execs
			libSym += r.symExecs
		}
		if r.symExecs > 0 {
			symLocs++
		}
		t.AddRow(b.Region.String(), fmt.Sprintf("b%d", r.id),
			fmt.Sprintf("%s@%s:%d", b.Func, b.Pos.Unit, b.Pos.Line),
			fmt.Sprintf("%d", r.execs), fmt.Sprintf("%d", r.symExecs))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("total branch executions: %d; symbolic: %d (%.0f%%; paper ~10%%)",
			total, sym, 100*float64(sym)/float64(total)),
		fmt.Sprintf("library share of executions: %.0f%% (paper 81%%); of symbolic executions: %.0f%% (paper 28%%)",
			100*float64(libExecs)/float64(total), 100*float64(libSym)/float64(max(sym, 1))),
		fmt.Sprintf("symbolic branch locations: %d (paper: 53)", symLocs))
	return t, nil
}

// Table2 reproduces the uServer instrumented-branch-location counts for the
// four methods under low and high analysis coverage.
func (c Config) Table2(ctx context.Context) (*Table, error) {
	lc, hc := c.uServerAnalysis(c.UServerAnalysisRunsLC), c.uServerAnalysis(c.UServerAnalysisRunsHC)
	prog := hc.Program()

	t := &Table{
		ID:     "Table 2",
		Title:  "instrumented branch locations in the uServer",
		Header: []string{"config", "LC", "HC", "LC app/lib", "HC app/lib"},
	}
	for _, m := range instrument.Methods {
		lcPlan, err := planFor(ctx, lc, m, true)
		if err != nil {
			return nil, err
		}
		hcPlan, err := planFor(ctx, hc, m, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(m.String(),
			fmt.Sprintf("%d", lcPlan.NumInstrumented()),
			fmt.Sprintf("%d", hcPlan.NumInstrumented()),
			fmt.Sprintf("%d/%d", lcPlan.InstrumentedIn(prog, lang.RegionApp),
				lcPlan.InstrumentedIn(prog, lang.RegionLib)),
			fmt.Sprintf("%d/%d", hcPlan.InstrumentedIn(prog, lang.RegionApp),
				hcPlan.InstrumentedIn(prog, lang.RegionLib)))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("total branch locations: app %d, lib %d (paper: 5104 app, 8516 lib)",
			len(prog.BranchesIn(lang.RegionApp)), len(prog.BranchesIn(lang.RegionLib))),
		"paper HC: dynamic 246, dynamic+static 1490, static 2104, all 5104;",
		"coverage raises dynamic's count and lowers dynamic+static's (§5.3)")
	return t, nil
}

// Figure4 reproduces the uServer CPU-time and storage measurements per
// configuration: dynamic and dynamic+static at both coverages, static, all
// branches, against the uninstrumented baseline.
func (c Config) Figure4(ctx context.Context) (*Table, error) {
	lc, hc := c.uServerAnalysis(c.UServerAnalysisRunsLC), c.uServerAnalysis(c.UServerAnalysisRunsHC)
	sess := c.session(apps.UServerLoadScenario(c.UServerLoadRequests, apps.DefaultHTTPRequest))

	t := &Table{
		ID:    "Figure 4",
		Title: fmt.Sprintf("uServer CPU time and storage, %d requests", c.UServerLoadRequests),
		Header: []string{"config", "instr. locations", "cpu time", "rel cpu",
			"proj. native overhead", "storage bytes", "bytes/request", "syslog bytes"},
	}
	none, err := planFor(ctx, hc, instrument.MethodNone, false)
	if err != nil {
		return nil, err
	}
	baseline, _, err := sess.MeasureOverhead(ctx, none, c.OverheadRounds)
	if err != nil {
		return nil, err
	}
	t.AddRow("none", "0", fmtDur(baseline), "100%", "+0%", "0", "0", "0")

	type cfg struct {
		label string
		m     instrument.Method
		an    *pathlog.Session
	}
	cfgs := []cfg{
		{"dynamic (lc)", instrument.MethodDynamic, lc},
		{"dynamic (hc)", instrument.MethodDynamic, hc},
		{"dynamic+static (lc)", instrument.MethodDynamicStatic, lc},
		{"dynamic+static (hc)", instrument.MethodDynamicStatic, hc},
		{"static", instrument.MethodStatic, hc},
		{"all branches", instrument.MethodAll, hc},
	}
	for _, cf := range cfgs {
		plan, err := planFor(ctx, cf.an, cf.m, true)
		if err != nil {
			return nil, err
		}
		avg, stats, err := sess.MeasureOverhead(ctx, plan, c.OverheadRounds)
		if err != nil {
			return nil, err
		}
		storage := stats.TraceBytes + stats.SyslogBytes
		t.AddRow(cf.label, fmt.Sprintf("%d", plan.NumInstrumented()),
			fmtDur(avg), relCPU(avg, baseline),
			projectedOverhead(stats.TraceBits, stats.Steps),
			fmt.Sprintf("%d", storage),
			fmt.Sprintf("%.1f", float64(storage)/float64(c.UServerLoadRequests)),
			fmt.Sprintf("%d", stats.SyslogBytes))
	}
	t.Notes = append(t.Notes,
		"paper: dynamic 17%, dynamic+static 20% overhead; static only marginally better than all branches",
		"paper storage: ~50 bytes/request under dynamic and dynamic+static")
	return t, nil
}

// uReplayRows is the LC/HC × method grid of Tables 3/4 and 5/8.
var uReplayRows = []struct {
	label string
	m     instrument.Method
	lc    bool
}{
	{"dynamic", instrument.MethodDynamic, true},
	{"dynamic", instrument.MethodDynamic, false},
	{"dynamic+static", instrument.MethodDynamicStatic, true},
	{"dynamic+static", instrument.MethodDynamicStatic, false},
	{"static", instrument.MethodStatic, false},
	{"all branches", instrument.MethodAll, false},
}

// uServerReplay reproduces the given uServer experiments under every row
// of the grid, with or without syscall-result logging: replay times go to
// times (Table 3 or 5), symbolic branch statistics to stats (Table 4 or 8).
func (c Config) uServerReplay(ctx context.Context, exps []int, logSyscalls bool, times, stats *Table) (*Table, *Table, error) {
	times.Header = []string{"exp", "config", "coverage", "replay time", "runs", "reproduced"}
	stats.Header = []string{"exp", "config", "coverage", "logged locs/execs", "NOT logged locs/execs"}
	lc, hc := c.uServerAnalysis(c.UServerAnalysisRunsLC), c.uServerAnalysis(c.UServerAnalysisRunsHC)
	for _, exp := range exps {
		s, err := apps.UServerScenario(exp, 72)
		if err != nil {
			return nil, nil, err
		}
		sess := c.session(s)
		for _, row := range uReplayRows {
			an, cov := hc, "HC"
			if row.lc {
				an, cov = lc, "LC"
			}
			if row.m == instrument.MethodStatic || row.m == instrument.MethodAll {
				cov = "-"
			}
			plan, err := planFor(ctx, an, row.m, logSyscalls)
			if err != nil {
				return nil, nil, err
			}
			label := []string{fmt.Sprintf("%d", exp), row.label, cov}
			if err := replayRow(ctx, sess, plan, label, times, stats); err != nil {
				return nil, nil, err
			}
		}
	}
	return times, stats, nil
}

// Tables3and4 reproduces the uServer replay-time matrix (Table 3) and the
// logged/not-logged symbolic-branch statistics (Table 4) in one pass over
// the five input scenarios.
func (c Config) Tables3and4(ctx context.Context) (*Table, *Table, error) {
	return c.uServerReplay(ctx, []int{1, 2, 3, 4, 5}, true, &Table{
		ID:    "Table 3",
		Title: "uServer bug reproduction times, five input scenarios",
		Notes: []string{
			"paper: all branches and static fastest; dynamic+static slightly slower; dynamic worst,",
			"with several LC entries not finishing within one hour (inf)"},
	}, &Table{
		ID:    "Table 4",
		Title: "symbolic branch locations/executions logged and not logged",
		Notes: []string{
			"paper: replay time correlates with NOT-logged symbolic branch locations;",
			"static and all branches always show 0 not logged"},
	})
}

// Tables5and8 reproduces the no-syscall-logging experiments: replay times
// (Table 5) and branch statistics (Table 8) for experiments 1 and 4. The
// recordings carry no syscall results, so replay falls back to the §3.3
// models.
func (c Config) Tables5and8(ctx context.Context) (*Table, *Table, error) {
	return c.uServerReplay(ctx, []int{1, 4}, false, &Table{
		ID:    "Table 5",
		Title: "uServer reproduction times without syscall-result logging (exps 1, 4)",
		Notes: []string{
			"paper: all configurations take significantly longer than with syscall logging (Table 3);",
			"the engine must search for the results of the modeled system calls"},
	}, &Table{
		ID:    "Table 8",
		Title: "symbolic branch stats without syscall-result logging (exps 1, 4)",
		Notes: []string{
			"paper: modeled syscall results add symbolic executions that no branch log covers"},
	})
}

// Compress reports the branch-log gzip compression ratio (§5.3 text:
// 10-20x). The load workload is re-armed with the crash signal so Record
// yields a recording whose trace can be compressed.
func (c Config) Compress(ctx context.Context) (*Table, error) {
	hc := c.uServerAnalysis(c.UServerAnalysisRunsHC)
	s := apps.UServerLoadScenario(c.UServerLoadRequests, apps.DefaultHTTPRequest)
	crashSpec := *s.Spec
	crashSpec.CrashSignalAfterConns = true
	s.Name, s.Spec = "compress", &crashSpec
	sess := c.session(s)

	t := &Table{
		ID:     "Compression",
		Title:  "branch-log gzip ratio (paper: 10-20x)",
		Header: []string{"config", "raw bytes", "ratio"},
	}
	for _, m := range []instrument.Method{instrument.MethodStatic, instrument.MethodAll} {
		plan, err := planFor(ctx, hc, m, false)
		if err != nil {
			return nil, err
		}
		rec, _, err := sess.RecordWith(ctx, plan, nil)
		if err != nil {
			return nil, err
		}
		if rec == nil {
			return nil, fmt.Errorf("compress: load run did not crash")
		}
		t.AddRow(m.String(), fmt.Sprintf("%d", rec.Trace.SizeBytes()),
			fmt.Sprintf("%.1fx", rec.Trace.CompressionRatio()))
	}
	return t, nil
}
