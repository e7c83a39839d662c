package main

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
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
	gateAll := []string{"ns/op", "replay-runs", "ns/replay-run"}
	for _, tc := range []struct {
		name    string
		base    Doc
		fresh   []Result
		gate    []string // nil: ns/replay-run alone
		wantErr string   // empty: the gate passes
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := tc.gate
			if gate == nil {
				gate = []string{"ns/replay-run"}
			}
			err := compare(&Doc{Benchmarks: tc.fresh}, writeBaseline(t, tc.base), gate, 20)
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
