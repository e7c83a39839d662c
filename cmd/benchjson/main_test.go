package main

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// writeBaseline commits doc as a baseline file and returns its path.
func writeBaseline(t *testing.T, doc Doc) string {
	t.Helper()
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func bench(name string, metrics map[string]float64) Result {
	return Result{Name: name, Iterations: 1, Metrics: metrics}
}

func TestCompare(t *testing.T) {
	base := Doc{Benchmarks: []Result{
		bench("BenchmarkReplay", map[string]float64{"ns/replay-run": 1000, "ns/op": 5e6}),
	}}
	const gateAll = "ns/op,replay-runs,ns/replay-run"
	for _, tc := range []struct {
		name    string
		base    Doc
		fresh   []Result
		gate    string // empty: ns/replay-run alone
		wantErr string // empty: the gate passes
	}{
		{
			name:  "pass",
			base:  base,
			fresh: []Result{bench("BenchmarkReplay", map[string]float64{"ns/replay-run": 1100})},
		},
		{
			name:  "pass with GOMAXPROCS suffix",
			base:  base,
			fresh: []Result{bench("BenchmarkReplay-4", map[string]float64{"ns/replay-run": 900})},
		},
		{
			// -cpu 1,2 rows: each baseline row is held to its own CPU
			// count, not to whichever row shares its base name.
			name: "cpu list rows match by full name",
			base: Doc{Benchmarks: []Result{
				bench("BenchmarkDynamicAnalysis/a-5runs", map[string]float64{"ns/replay-run": 1000}),
				bench("BenchmarkDynamicAnalysis/a-5runs-2", map[string]float64{"ns/replay-run": 600}),
			}},
			fresh: []Result{
				bench("BenchmarkDynamicAnalysis/a-5runs", map[string]float64{"ns/replay-run": 1000}),
				bench("BenchmarkDynamicAnalysis/a-5runs-2", map[string]float64{"ns/replay-run": 900}),
			},
			wantErr: "regressed ns/replay-run by more than 20%",
		},
		{
			name:    "regression",
			base:    base,
			fresh:   []Result{bench("BenchmarkReplay", map[string]float64{"ns/replay-run": 1300})},
			wantErr: "regressed ns/replay-run by more than 20%",
		},
		{
			name:    "missing entry",
			base:    base,
			fresh:   []Result{bench("BenchmarkReplayRenamed", map[string]float64{"ns/replay-run": 1000})},
			wantErr: "missing from the fresh run: BenchmarkReplay",
		},
		{
			name: "missing entry beside a passing one",
			base: Doc{Benchmarks: append([]Result{
				bench("BenchmarkReplay/workers=2", map[string]float64{"ns/replay-run": 1000}),
			}, base.Benchmarks...)},
			fresh:   []Result{bench("BenchmarkReplay", map[string]float64{"ns/replay-run": 1000})},
			wantErr: "missing from the fresh run: BenchmarkReplay/workers=2",
		},
		{
			name:    "shares no metrics",
			base:    base,
			fresh:   []Result{bench("BenchmarkReplay", map[string]float64{"replay-runs": 98})},
			wantErr: `shares no "ns/replay-run" metrics`,
		},
		{
			// A search that needs 25x fewer, fuller runs: the per-run
			// cost rises, but the gate must not trip on that alone
			// when the total time and the run count fall.
			name: "metric list passes fewer fuller runs",
			base: Doc{Benchmarks: []Result{
				bench("BenchmarkReplay", map[string]float64{"ns/op": 50e6, "replay-runs": 98, "ns/replay-run": 1000}),
			}},
			fresh: []Result{bench("BenchmarkReplay", map[string]float64{"ns/op": 2e6, "replay-runs": 2, "ns/replay-run": 1000})},
			gate:  gateAll,
		},
		{
			// A search that wastes runs: each run is cheaper, but the
			// search takes longer and needs more of them.
			name: "metric list catches a wasteful search",
			base: Doc{Benchmarks: []Result{
				bench("BenchmarkReplay", map[string]float64{"ns/op": 2e6, "replay-runs": 2, "ns/replay-run": 1e6}),
			}},
			fresh:   []Result{bench("BenchmarkReplay", map[string]float64{"ns/op": 50e6, "replay-runs": 98, "ns/replay-run": 0.5e6})},
			gate:    gateAll,
			wantErr: "2 benchmark metric(s) regressed ns/op,replay-runs by more than 20%",
		},
		{
			name: "metric list gates only what the baseline carries",
			base: Doc{Benchmarks: []Result{
				bench("BenchmarkReplay", map[string]float64{"ns/replay-run": 1000}),
			}},
			fresh: []Result{bench("BenchmarkReplay", map[string]float64{"ns/op": 90e6, "replay-runs": 500, "ns/replay-run": 1100})},
			gate:  gateAll,
		},
		{
			// Counts depend only on the code: one more unit of charged
			// work fails an exact bound, though the time may drift.
			name: "exact bound catches one more unit of work",
			base: Doc{Benchmarks: []Result{
				bench("BenchmarkSolve/searched-sat", map[string]float64{"ns/call": 20000, "work/call": 4354}),
			}},
			fresh:   []Result{bench("BenchmarkSolve/searched-sat", map[string]float64{"ns/call": 15000, "work/call": 4355})},
			gate:    "ns/call,work/call=0",
			wantErr: "1 benchmark metric(s) regressed work/call by more than 0%",
		},
		{
			name: "exact bound passes an equal count beside a drifting time",
			base: Doc{Benchmarks: []Result{
				bench("BenchmarkSolve/searched-sat", map[string]float64{"ns/call": 20000, "work/call": 4354}),
			}},
			fresh: []Result{bench("BenchmarkSolve/searched-sat", map[string]float64{"ns/call": 23000, "work/call": 4354})},
			gate:  "ns/call,work/call=0",
		},
		{
			// A call the seed satisfies charges no work; any charge is a
			// regression, though no percentage of zero measures it.
			name: "exact bound gates a zero baseline",
			base: Doc{Benchmarks: []Result{
				bench("BenchmarkSolve/seed-sat", map[string]float64{"ns/call": 3000, "work/call": 0}),
			}},
			fresh:   []Result{bench("BenchmarkSolve/seed-sat", map[string]float64{"ns/call": 3000, "work/call": 12})},
			gate:    "ns/call,work/call=0",
			wantErr: "regressed work/call by more than 0%",
		},
		{
			name: "mixed bounds name each",
			base: Doc{Benchmarks: []Result{
				bench("BenchmarkReplay", map[string]float64{"ns/op": 2e6, "replay-runs": 2, "ns/replay-run": 1e6}),
			}},
			fresh:   []Result{bench("BenchmarkReplay", map[string]float64{"ns/op": 3e6, "replay-runs": 3, "ns/replay-run": 1e6})},
			gate:    "ns/op,replay-runs=0,ns/replay-run",
			wantErr: "2 benchmark metric(s) regressed ns/op by more than 20%; replay-runs by more than 0%",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.gate
			if spec == "" {
				spec = "ns/replay-run"
			}
			gates, err := parseGates(spec, 20)
			if err != nil {
				t.Fatal(err)
			}
			err = compare(&Doc{Benchmarks: tc.fresh}, writeBaseline(t, tc.base), gates)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("gate failed: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("gate passed, want an error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestParseGates reads bare metrics at the default bound and
// metric=percent at its own, and refuses malformed bounds.
func TestParseGates(t *testing.T) {
	got, err := parseGates("ns/op,replay-runs=0,ns/replay-run=12.5", 20)
	if err != nil {
		t.Fatal(err)
	}
	want := []gate{{"ns/op", 20}, {"replay-runs", 0}, {"ns/replay-run", 12.5}}
	if !slices.Equal(got, want) {
		t.Errorf("parseGates = %v, want %v", got, want)
	}
	for _, bad := range []string{"work/call=", "work/call=-1", "work/call=x", "=0", "ns/op,,work/call", "work/call=Inf", "work/call=NaN"} {
		if _, err := parseGates(bad, 20); err == nil {
			t.Errorf("parseGates(%q) accepted a malformed gate", bad)
		}
	}
}

func TestBaseName(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkReplay":                  "BenchmarkReplay",
		"BenchmarkReplay-2":                "BenchmarkReplay",
		"BenchmarkTable5/exp4-16":          "BenchmarkTable5/exp4",
		"BenchmarkDynamicAnalysis/a-5runs": "BenchmarkDynamicAnalysis/a-5runs",
		"BenchmarkX-":                      "BenchmarkX-",
	} {
		if got := baseName(in); got != want {
			t.Errorf("baseName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestCollapseMedian reduces three repetitions to the median of each
// metric on its own: the ratio comes from a different repetition than the
// time, and a metric one repetition lacks is the median of the others.
func TestCollapseMedian(t *testing.T) {
	doc := Doc{Benchmarks: []Result{
		{Name: "BenchmarkRecordPaired/a", Iterations: 10, Metrics: map[string]float64{"ns/op": 300, "overhead-x": 0.99, "allocs/op": 84}},
		bench("BenchmarkReplay", map[string]float64{"ns/op": 7}),
		{Name: "BenchmarkRecordPaired/a", Iterations: 30, Metrics: map[string]float64{"ns/op": 100, "overhead-x": 1.03, "allocs/op": 84}},
		{Name: "BenchmarkRecordPaired/a", Iterations: 20, Metrics: map[string]float64{"ns/op": 200, "overhead-x": 1.01}},
		bench("BenchmarkReplay", map[string]float64{"ns/op": 5}),
	}}
	if err := collapse(&doc, 2, 1); err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 2 || doc.Benchmarks[0].Name != "BenchmarkRecordPaired/a" {
		t.Fatalf("collapsed to %+v", doc.Benchmarks)
	}
	paired, replay := doc.Benchmarks[0], doc.Benchmarks[1]
	want := map[string]float64{"ns/op": 200, "overhead-x": 1.01, "allocs/op": 84}
	if paired.Runs != 3 || paired.Iterations != 20 || !maps.Equal(paired.Metrics, want) {
		t.Errorf("paired: %d runs, %d iterations, %v; want 3, 20, %v", paired.Runs, paired.Iterations, paired.Metrics, want)
	}
	if replay.Runs != 2 || replay.Metrics["ns/op"] != 6 {
		t.Errorf("replay: %d runs, ns/op %v; want 2, 6 (the mean of the middle two)", replay.Runs, replay.Metrics["ns/op"])
	}
	if err := collapse(&Doc{Benchmarks: []Result{bench("BenchmarkReplay", nil)}}, 2, 1); err == nil ||
		!strings.Contains(err.Error(), "has 1 run(s), need at least 2") {
		t.Errorf("one repetition against -min-runs 2: %v", err)
	}
}
