package harness

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// goldenExperiments are the experiments TestGoldenTables pins, in
// presentation order, by golden file name: each renders to
// testdata/<name>.golden, a pair of tables into one file. fleet is left
// out: its accepted-report count moves between runs of the same code (a
// retransmission that crosses the restart window counts twice).
var goldenExperiments = []struct{ name, exp string }{
	{"micro-loop", "micro-loop"},
	{"micro-fib", "micro-fib"},
	{"figure1", "figure1"},
	{"figure2", "figure2"},
	{"table1", "table1"},
	{"figure3", "figure3"},
	{"table2", "table2"},
	{"figure4", "figure4"},
	{"tables3and4", "table3"},
	{"tables5and8", "table5"},
	{"figure5", "figure5"},
	{"tables6and7", "table6"},
	{"compress", "compress"},
	{"frontier", "frontier"},
	{"adaptive", "adaptive"},
	{"corpus", "corpus"},
	{"store", "store"},
	{"summary", "summary"},
}

// goldenConfig is fastConfig with one analysis memo for every experiment,
// as RunAll shares it.
var goldenConfig = fastConfig().withAnalyses()

// experimentTables computes each golden experiment at most once per test
// binary, so the golden test and the shape tests read the same tables.
var experimentTables struct {
	mu     sync.Mutex
	tables map[string][]*Table
}

func tablesOf(t *testing.T, name string) []*Table {
	t.Helper()
	experimentTables.mu.Lock()
	defer experimentTables.mu.Unlock()
	if tbls, ok := experimentTables.tables[name]; ok {
		return tbls
	}
	for _, e := range goldenExperiments {
		if e.name != name {
			continue
		}
		tbls, err := experiments[e.exp](goldenConfig, context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if experimentTables.tables == nil {
			experimentTables.tables = make(map[string][]*Table)
		}
		experimentTables.tables[name] = tbls
		return tbls
	}
	t.Fatalf("no golden experiment %q", name)
	return nil
}

// tableOf returns the single table an experiment renders.
func tableOf(t *testing.T, name string) *Table {
	t.Helper()
	return tablesOf(t, name)[0]
}

// timingColumns are the cells that measure wall-clock time; the goldens
// blank them, and nothing else varies between runs.
var timingColumns = map[string]bool{"cpu time": true, "rel cpu": true, "replay time": true}

// timingNotes are the note prefixes that quote a measured time (Micro 1);
// the goldens keep only the prefix.
var timingNotes = []string{"per-instrumented-branch cost:", "total overhead:"}

// renderTimingFree renders a table with its timing cells and notes blanked.
func renderTimingFree(tbl *Table) string {
	cp := *tbl
	cp.Rows = make([][]string, len(tbl.Rows))
	for i, row := range tbl.Rows {
		cp.Rows[i] = append([]string(nil), row...)
		for j := range row {
			if j < len(tbl.Header) && timingColumns[tbl.Header[j]] {
				cp.Rows[i][j] = ""
			}
		}
	}
	cp.Notes = append([]string(nil), tbl.Notes...)
	for i, n := range cp.Notes {
		for _, p := range timingNotes {
			if strings.HasPrefix(n, p) {
				cp.Notes[i] = p
			}
		}
	}
	var buf bytes.Buffer
	cp.Render(&buf)
	return buf.String()
}

// TestGoldenTables renders the paper's tables at fastConfig and compares
// them, timing cells blanked, with testdata/<name>.golden: a change that
// must not move a run count, bit count or plan fingerprint leaves every
// file byte-unchanged. REGEN_GOLDEN=1 rewrites the files.
func TestGoldenTables(t *testing.T) {
	regen := os.Getenv("REGEN_GOLDEN") != ""
	for _, e := range goldenExperiments {
		var out strings.Builder
		for _, tbl := range tablesOf(t, e.name) {
			out.WriteString(renderTimingFree(tbl))
		}
		path := filepath.Join("testdata", e.name+".golden")
		if regen {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with REGEN_GOLDEN=1)", e.name, err)
		}
		if got := out.String(); got != string(want) {
			t.Errorf("%s: rendered table differs from %s:\n--- got\n%s--- want\n%s", e.name, path, got, want)
		}
	}
}
