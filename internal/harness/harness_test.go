package harness

import (
	"bytes"
	"context"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fastConfig shrinks every knob so the whole suite runs in CI time.
func fastConfig() Config {
	c := DefaultConfig()
	c.MicroLoopIters = 5000
	c.OverheadRounds = 1
	c.SmallWorkloadRounds = 5
	c.CoreutilAnalysisRuns = 1000
	c.UServerLoadRequests = 4
	c.UServerAnalysisRunsLC = 3
	c.UServerAnalysisRunsHC = 12
	c.DiffAnalysisRuns = 10
	// ReplayMaxRuns alone bounds every search: the wall-clock budget sits
	// far above the slowest run-bounded search (under -race too), so no
	// table depends on how fast the machine runs.
	c.ReplayMaxRuns = 1500
	c.ReplayBudget = time.Hour
	return c
}

func cell(t *testing.T, tbl *Table, row, col int) string {
	t.Helper()
	if row >= len(tbl.Rows) || col >= len(tbl.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d); rows=%d", tbl.ID, row, col, len(tbl.Rows))
	}
	return tbl.Rows[row][col]
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:     "Test",
		Title:  "demo",
		Header: []string{"a", "bee"},
		Notes:  []string{"a note"},
	}
	tbl.AddRow("1", "2")
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== Test — demo ==", "a  bee", "1  2", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestMicroLoopShape(t *testing.T) {
	tbl := tableOf(t, "micro-loop")
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	// All-branches must log one bit per loop iteration (plus setup checks).
	if cell(t, tbl, 1, 4) == "0" {
		t.Error("all-branches logged nothing")
	}
}

func TestMicroFibShape(t *testing.T) {
	tbl := tableOf(t, "micro-fib")
	// Rows: none + 4 methods; the three selective methods instrument exactly
	// the two option branches of Listing 1.
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows[1:4] {
		if row[1] != "2" {
			t.Errorf("%s instruments %s locations, want 2", row[0], row[1])
		}
	}
}

func TestFigure1Assumptions(t *testing.T) {
	tbl := tableOf(t, "figure1")
	if len(tbl.Rows) == 0 {
		t.Fatal("no branch rows")
	}
	// The paper's assumption: no *application* location mixes symbolic and
	// concrete executions in a run of mkdir. Library locations may mix — the
	// paper notes uClibc bars are "almost but not completely" covered.
	found := false
	for _, n := range tbl.Notes {
		if strings.Contains(n, "application locations mixing symbolic and concrete executions: 0") {
			found = true
		}
	}
	if !found {
		t.Errorf("app mixed-location note missing or nonzero: %v", tbl.Notes)
	}
}

func TestTable1AllReproduced(t *testing.T) {
	tbl := tableOf(t, "table1")
	if len(tbl.Rows) != 16 { // 4 programs x 4 methods
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[4] != "true" {
			t.Errorf("%s/%s not reproduced", row[0], row[1])
		}
	}
}

func TestTable2Shape(t *testing.T) {
	tbl := tableOf(t, "table2")
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	counts := map[string][2]string{}
	for _, row := range tbl.Rows {
		counts[row[0]] = [2]string{row[1], row[2]}
	}
	// dynamic must instrument fewer locations than dynamic+static, which
	// must not exceed static, which must not exceed all branches (§2.3).
	dynHC := atoiT(t, counts["dynamic"][1])
	dsHC := atoiT(t, counts["dynamic+static"][1])
	stHC := atoiT(t, counts["static"][1])
	allHC := atoiT(t, counts["all branches"][1])
	if !(dynHC < dsHC && dsHC <= stHC && stHC <= allHC) {
		t.Errorf("ordering violated: dyn=%d ds=%d st=%d all=%d", dynHC, dsHC, stHC, allHC)
	}
	// Coverage must not shrink dynamic's set.
	if atoiT(t, counts["dynamic"][0]) > dynHC {
		t.Error("dynamic LC > HC")
	}
}

func atoiT(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			t.Fatalf("not a number: %q", s)
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func TestFigure4StorageOrdering(t *testing.T) {
	tbl := tableOf(t, "figure4")
	// Row order: none, dyn lc, dyn hc, ds lc, ds hc, static, all.
	if len(tbl.Rows) != 7 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	dynHC := atoiT(t, cell(t, tbl, 2, 5))
	dsHC := atoiT(t, cell(t, tbl, 4, 5))
	static := atoiT(t, cell(t, tbl, 5, 5))
	all := atoiT(t, cell(t, tbl, 6, 5))
	if !(dynHC <= dsHC && dsHC <= static && static <= all) {
		t.Errorf("storage ordering violated: dyn=%d ds=%d st=%d all=%d",
			dynHC, dsHC, static, all)
	}
	if all == 0 {
		t.Error("all-branches run logged nothing")
	}
}

func TestTables6and7DiffContrast(t *testing.T) {
	tbls := tablesOf(t, "tables6and7")
	t6, t7 := tbls[0], tbls[1]
	if len(t6.Rows) != 8 || len(t7.Rows) != 8 {
		t.Fatalf("rows: %d/%d", len(t6.Rows), len(t7.Rows))
	}
	// The three non-dynamic methods must reproduce both experiments.
	for _, row := range t6.Rows {
		if row[1] == "dynamic" {
			continue // may or may not finish, §5.4 says inf
		}
		if row[4] != "true" {
			t.Errorf("diff %s/%s not reproduced", row[0], row[1])
		}
	}
}

// TestFrontierUServer is the acceptance check for the measured frontier:
// over uServer exps 1-5, every plan of the default sweep and the Budgeted
// ladder is recorded and replayed once (one row per distinct plan), every
// rung reproduces within the replay budget, and each scenario's
// Pareto-optimal rows have strictly rising bits and strictly falling
// replay runs.
func TestFrontierUServer(t *testing.T) {
	c := fastConfig()
	tbl := tableOf(t, "frontier")
	type cell struct{ bits, runs float64 }
	fps := map[string]bool{}
	fronts := map[string][]cell{}
	exps := map[string]int{}
	for _, row := range tbl.Rows {
		exp, fp := row[0], row[7]
		if fps[exp+fp] {
			t.Errorf("exp %s: plan %s measured twice", exp, fp)
		}
		fps[exp+fp] = true
		exps[exp]++
		if row[5] != "true" {
			t.Errorf("exp %s: %s did not reproduce within %d runs: %v", exp, row[1], c.ReplayMaxRuns, row)
		}
		if row[6] == "yes" {
			fronts[exp] = append(fronts[exp], cell{atofT(t, row[3]), atofT(t, row[4])})
		}
	}
	if len(exps) != 5 {
		t.Fatalf("frontier table covers %d scenarios, want 5:\n%v", len(exps), tbl.Rows)
	}
	for exp, n := range exps {
		if n < len(frontierLadder) {
			t.Errorf("exp %s: %d measured plans, want at least the %d ladder rungs", exp, n, len(frontierLadder))
		}
		front := fronts[exp]
		if len(front) == 0 {
			t.Errorf("exp %s: empty frontier", exp)
		}
		for i := 1; i < len(front); i++ {
			if !(front[i].bits > front[i-1].bits) || !(front[i].runs < front[i-1].runs) {
				t.Errorf("exp %s: frontier not strictly Pareto at %d: %v", exp, i, front)
			}
		}
	}
	if !strings.Contains(strings.Join(tbl.Notes, "\n"), "every rung reproduced") {
		t.Errorf("notes do not report every rung reproduced: %v", tbl.Notes)
	}
}

func atofT(t *testing.T, s string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("not a number: %q", s)
	}
	return f
}

// TestAdaptiveShape runs the feedback-loop experiment at test scale and
// checks the paper's claim holds structurally: replay runs never rise
// across generations, the final generation reproduces within the target,
// and its recorded bits stay below the all-branches bar. The artifact
// JSONs round-trip through the Config knobs CI uses.
func TestAdaptiveShape(t *testing.T) {
	c := fastConfig()
	c.AdaptiveTrajectoryOut = t.TempDir() + "/trajectory.json"
	c.AdaptiveProfileOut = t.TempDir() + "/profile.json"
	tbl, err := c.Adaptive(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Last row is the all-branches bar; at least two generations before it.
	if len(tbl.Rows) < 3 {
		t.Fatalf("adaptive table has %d rows, want >= 3:\n%v", len(tbl.Rows), tbl.Rows)
	}
	gens := tbl.Rows[:len(tbl.Rows)-1]
	bar := tbl.Rows[len(tbl.Rows)-1]
	prevRuns := -1.0
	for i, row := range gens {
		runs := atofT(t, row[4])
		if i > 0 && runs > prevRuns {
			t.Errorf("generation %d replay runs rose: %.0f after %.0f", i, runs, prevRuns)
		}
		prevRuns = runs
	}
	final := gens[len(gens)-1]
	if final[6] != "true" {
		t.Errorf("final generation did not reproduce: %v", final)
	}
	if atofT(t, final[4]) > float64(c.AdaptiveTargetRuns) {
		t.Errorf("final generation used %s replay runs, target %d", final[4], c.AdaptiveTargetRuns)
	}
	if atofT(t, final[3]) >= atofT(t, bar[3]) {
		t.Errorf("bits/run %s not below the all-branches bar %s", final[3], bar[3])
	}
	for _, path := range []string{c.AdaptiveTrajectoryOut, c.AdaptiveProfileOut} {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("artifact missing: %v", err)
		}
	}
}

func TestCompressRatio(t *testing.T) {
	tbl := tableOf(t, "compress")
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := fastConfig().Run(context.Background(), "nope", &buf); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestRunNamedExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := fastConfig().Run(context.Background(), "micro-fib", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Micro 2") {
		t.Errorf("output: %s", buf.String())
	}
}

func TestSummaryReduction(t *testing.T) {
	tbl := tableOf(t, "summary")
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	// dynamic+static must never log more bits than static (§2.3: it removes
	// dynamically-proven-concrete branches from static's set).
	for _, row := range tbl.Rows {
		st := atoiT(t, row[1])
		ds := atoiT(t, row[2])
		if ds > st {
			t.Errorf("%s: dyn+static bits %d > static bits %d", row[0], ds, st)
		}
	}
}

func TestStoreShape(t *testing.T) {
	c := fastConfig()
	c.StoreDir = t.TempDir()
	tbl, err := c.Store(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var before, withStore, refined int
	for _, row := range tbl.Rows {
		switch row[0] {
		case "cold (no store)":
			before++
			if row[2] != "0" {
				t.Errorf("storeless sweep shows a refined generation: %v", row)
			}
		case "cold + store":
			withStore++
			if row[2] != "0" {
				refined++
			}
		default:
			t.Errorf("unknown sweep label %q", row[0])
		}
	}
	if before == 0 || withStore == 0 {
		t.Fatalf("missing sweep phase: before=%d withStore=%d", before, withStore)
	}
	// The acceptance bar: the store-backed cold frontier carries refined
	// generations — measured points no sweep proposes — the storeless one
	// cannot.
	if refined == 0 {
		t.Fatalf("cold + store frontier has no refined generation:\n%+v", tbl.Rows)
	}
	// The store directory is left populated for inspection.
	if entries, err := os.ReadDir(c.StoreDir + "/plans"); err != nil || len(entries) == 0 {
		t.Errorf("store dir not populated: %v", err)
	}
}
