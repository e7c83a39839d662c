package harness

import (
	"context"
	"fmt"
	"io"

	"pathlog"
	"pathlog/internal/apps"
	"pathlog/internal/instrument"
)

// Summary reproduces the paper's headline claim (§8): the combined method
// reduces instrumentation overhead by 10-92% compared to static alone, while
// keeping bug reproduction within budget. It measures the logged-bits
// reduction (the driver of both CPU and storage overhead) of dynamic+static
// versus static across the three workload families.
func (c Config) Summary(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:    "Summary",
		Title: "dynamic+static vs static: instrumentation reduction (paper: 10-92%)",
		Header: []string{"workload", "static bits", "dyn+static bits",
			"reduction", "static locs", "dyn+static locs"},
	}

	emit := func(name string, s *apps.Scenario, an *pathlog.Session) error {
		stPlan, err := planFor(ctx, an, instrument.MethodStatic, true)
		if err != nil {
			return err
		}
		dsPlan, err := planFor(ctx, an, instrument.MethodDynamicStatic, true)
		if err != nil {
			return err
		}
		sess := c.session(s)
		_, stStats, err := sess.MeasureOverhead(ctx, stPlan, 1)
		if err != nil {
			return err
		}
		_, dsStats, err := sess.MeasureOverhead(ctx, dsPlan, 1)
		if err != nil {
			return err
		}
		red := "0%"
		if stStats.TraceBits > 0 {
			red = fmtPct(float64(stStats.TraceBits-dsStats.TraceBits) /
				float64(stStats.TraceBits))
		}
		t.AddRow(name,
			fmt.Sprintf("%d", stStats.TraceBits),
			fmt.Sprintf("%d", dsStats.TraceBits),
			red,
			fmt.Sprintf("%d", stPlan.NumInstrumented()),
			fmt.Sprintf("%d", dsPlan.NumInstrumented()))
		return nil
	}

	mk, err := c.healthyMkdir()
	if err != nil {
		return nil, err
	}
	if err := emit("mkdir", mk, c.coreutilAnalysis(mk)); err != nil {
		return nil, err
	}
	us := apps.UServerLoadScenario(c.UServerLoadRequests, apps.DefaultHTTPRequest)
	if err := emit("userver", us, c.uServerAnalysis(c.UServerAnalysisRunsHC)); err != nil {
		return nil, err
	}
	df, err := apps.DiffExperimentScenario(1)
	if err != nil {
		return nil, err
	}
	dfAn, err := c.diffAnalysis()
	if err != nil {
		return nil, err
	}
	if err := emit("diff", df, dfAn); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"logged bits drive both CPU and storage overhead (1 bit per instrumented branch execution)")
	return t, nil
}

// Experiments lists experiment names in presentation order; cmd/experiments
// exposes them.
var Experiments = []string{
	"micro-loop", "micro-fib", "figure1", "figure2", "table1",
	"figure3", "table2", "figure4", "table3", "table4", "table5", "table8",
	"figure5", "table6", "table7", "compress", "frontier", "adaptive", "store", "corpus", "fleet", "fleetreplay", "tracefleet", "summary",
}

// experiments maps each experiment name to the tables it renders; a pair
// of tables (3/4, 5/8, 6/7) answers to both of its names.
var experiments = map[string]func(Config, context.Context) ([]*Table, error){
	"micro-loop":  one(Config.MicroLoop),
	"micro-fib":   one(Config.MicroFib),
	"figure1":     one(Config.Figure1),
	"figure2":     one(Config.Figure2),
	"table1":      one(Config.Table1),
	"figure3":     one(Config.Figure3),
	"table2":      one(Config.Table2),
	"figure4":     one(Config.Figure4),
	"table3":      two(Config.Tables3and4),
	"table4":      two(Config.Tables3and4),
	"table5":      two(Config.Tables5and8),
	"table8":      two(Config.Tables5and8),
	"figure5":     one(Config.Figure5),
	"table6":      two(Config.Tables6and7),
	"table7":      two(Config.Tables6and7),
	"compress":    one(Config.Compress),
	"frontier":    one(Config.Frontier),
	"adaptive":    one(Config.Adaptive),
	"store":       one(Config.Store),
	"corpus":      one(Config.Corpus),
	"fleet":       one(Config.Fleet),
	"fleetreplay": one(Config.FleetReplay),
	"tracefleet":  one(Config.TraceFleet),
	"summary":     one(Config.Summary),
}

func one(f func(Config, context.Context) (*Table, error)) func(Config, context.Context) ([]*Table, error) {
	return func(c Config, ctx context.Context) ([]*Table, error) {
		t, err := f(c, ctx)
		return []*Table{t}, err
	}
}

func two(f func(Config, context.Context) (*Table, *Table, error)) func(Config, context.Context) ([]*Table, error) {
	return func(c Config, ctx context.Context) ([]*Table, error) {
		a, b, err := f(c, ctx)
		return []*Table{a, b}, err
	}
}

// Run executes one named experiment and renders it to w. The context
// cancels analysis and replay work in flight.
func (c Config) Run(ctx context.Context, name string, w io.Writer) error {
	run, ok := experiments[name]
	if !ok {
		return fmt.Errorf("harness: unknown experiment %q (known: %v)", name, Experiments)
	}
	tables, err := run(c.withAnalyses(), ctx)
	if err != nil {
		return err
	}
	for _, t := range tables {
		t.Render(w)
	}
	return nil
}

// RunAll executes every experiment in presentation order, skipping the
// second name of rendered pairs. Each scenario family is analysed once for
// all the tables that plan from it.
func (c Config) RunAll(ctx context.Context, w io.Writer) error {
	c = c.withAnalyses()
	skip := map[string]bool{"table4": true, "table8": true, "table7": true}
	for _, name := range Experiments {
		if skip[name] {
			continue
		}
		fmt.Fprintf(w, "-- running %s --\n", name)
		if err := c.Run(ctx, name, w); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}
