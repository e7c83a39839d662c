package main

import (
	"encoding/json"
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
