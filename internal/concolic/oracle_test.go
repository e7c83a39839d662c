package concolic_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pathlog/internal/apps"
	"pathlog/internal/concolic"
	"pathlog/internal/world"
)

// oraclePins holds the whole Report of every oracle case, Elapsed zeroed.
// Regenerate with REGEN_GOLDEN=1 go test -run TestExplorationOracle
// ./internal/concolic/ — only when the exploration is meant to change.
var oraclePins = filepath.Join("testdata", "oracle_pins.json")

// oracleCase is one exploration the oracle pins: a scenario's analysis at
// one run budget.
type oracleCase struct {
	name string
	s    *apps.Scenario
	runs int
}

// oracleCases are the four coreutils at perfbench's 300-run budget, the
// uServer analysis at 60 and 400 runs, and diff exp1 at 40 and exp2 at 400
// runs. The 400-run uServer and diff exp2 explorations hit the queue cap
// (maxQueue) 177 and 271 times.
func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	var cases []oracleCase
	for _, name := range apps.CoreutilNames() {
		s, err := apps.CoreutilScenario(name, 12)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, oracleCase{name + "-300", s, 300})
	}
	userver := apps.UServerAnalysisScenario()
	cases = append(cases, oracleCase{"userver-60", userver, 60}, oracleCase{"userver-400", userver, 400})
	for _, c := range []struct{ exp, runs int }{{1, 40}, {2, 400}} {
		s, err := apps.DiffExperimentScenario(c.exp)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, oracleCase{fmt.Sprintf("diff%d-%d", c.exp, c.runs), s, c.runs})
	}
	return cases
}

// TestExplorationOracle holds every oracle exploration to its pinned
// Report — labels, per-branch execution counts, runs, execution totals and
// solver counters — at GOMAXPROCS 1, 2 and 4, and checks that no goroutine
// an exploration started is left running after Explore returns.
func TestExplorationOracle(t *testing.T) {
	cases := oracleCases(t)
	want := map[string]*concolic.Report{}
	regen := os.Getenv("REGEN_GOLDEN") != ""
	if !regen {
		raw, err := os.ReadFile(oraclePins)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			before := runtime.NumGoroutine()
			ex := concolic.New(c.s.Prog, c.s.Spec, world.NewRegistry(c.s.Spec), concolic.Options{MaxRuns: c.runs})
			got := ex.Explore(context.Background())
			got.Elapsed = 0
			if n := settledGoroutines(before); n != before {
				t.Errorf("procs=%d %s: %d goroutines after Explore, %d before", procs, c.name, n, before)
			}
			if regen {
				if prev, ok := want[c.name]; ok && !reflect.DeepEqual(got, prev) {
					t.Fatalf("procs=%d %s: the report differs from procs=1's; not regenerating", procs, c.name)
				}
				want[c.name] = got
				continue
			}
			if w, ok := want[c.name]; !ok {
				t.Errorf("%s: no pin", c.name)
			} else if !reflect.DeepEqual(got, w) {
				t.Errorf("procs=%d %s: report moved from the pin:\n%s", procs, c.name, reportDiff(got, w))
			}
		}
	}
	if regen {
		raw, err := json.MarshalIndent(want, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(oraclePins, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// settledGoroutines returns the goroutine count once it has fallen back to
// want, or after a second. A goroutine that has signalled its exit is still
// counted until the scheduler retires it, so the count is polled briefly.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// reportDiff names the fields of two reports that differ.
func reportDiff(got, want *concolic.Report) string {
	out := ""
	if got.Runs != want.Runs {
		out += fmt.Sprintf("  Runs %d, want %d\n", got.Runs, want.Runs)
	}
	if got.BranchExecs != want.BranchExecs || got.SymbolicExecs != want.SymbolicExecs {
		out += fmt.Sprintf("  execs %d/%d, want %d/%d\n", got.BranchExecs, got.SymbolicExecs, want.BranchExecs, want.SymbolicExecs)
	}
	if got.SolverStats != want.SolverStats {
		out += fmt.Sprintf("  SolverStats %+v\n         want %+v\n", got.SolverStats, want.SolverStats)
	}
	for name, eq := range map[string]bool{
		"Labels":       reflect.DeepEqual(got.Labels, want.Labels),
		"ExecCount":    reflect.DeepEqual(got.ExecCount, want.ExecCount),
		"SymExecCount": reflect.DeepEqual(got.SymExecCount, want.SymExecCount),
	} {
		if !eq {
			out += "  " + name + " differ\n"
		}
	}
	return out
}
