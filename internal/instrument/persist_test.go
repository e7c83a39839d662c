package instrument

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathlog/internal/lang"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// goldenPlan is the deterministic fixture plan: fakeProgram under the
// combined method with syscall logging.
func goldenPlan(t *testing.T) *Plan {
	t.Helper()
	return planOf(t, StrategyForMethod(MethodDynamicStatic), NewPlanContext(fakeProgram(t), fakeInputs(), true))
}

// TestPlanGoldenFile pins the serialized plan format: program hash,
// fingerprint, branch set and cost survive exactly as checked in. A
// failure here means the envelope changed — bump the version and the
// golden file deliberately, not accidentally.
func TestPlanGoldenFile(t *testing.T) {
	golden := filepath.Join("testdata", "plan_golden.json")
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := goldenPlan(t).Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("plan serialization drifted from golden file:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestPlanParentFormatLoads reads the golden plan as the previous format
// wrote it, with the modelled replay-runs estimate in its cost block and
// the retired method tag, and checks that it loads as the current golden
// plan: same fingerprint, branch set and overhead estimate. The retired
// fields are ignored, so plans shipped before the format change keep
// resolving.
func TestPlanParentFormatLoads(t *testing.T) {
	path := filepath.Join("testdata", "plan_parent_golden.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"replay_runs"`) {
		t.Fatalf("%s is not in the parent format (no replay_runs):\n%s", path, data)
	}
	old, err := LoadPlan(path)
	if err != nil {
		t.Fatalf("parent-format plan refused: %v", err)
	}
	want := goldenPlan(t)
	if old.Fingerprint() != want.Fingerprint() {
		t.Errorf("fingerprint %s, want %s", old.Fingerprint(), want.Fingerprint())
	}
	if fmt.Sprint(old.IDs()) != fmt.Sprint(want.IDs()) {
		t.Errorf("branch set %v, want %v", old.IDs(), want.IDs())
	}
	if old.EstimatedOverhead() != want.EstimatedOverhead() || old.Cost != want.Cost {
		t.Errorf("cost %+v, want %+v", old.Cost, want.Cost)
	}
}

func TestPlanSaveLoadRoundTrip(t *testing.T) {
	p := goldenPlan(t)
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Fingerprint() != p.Fingerprint() {
		t.Errorf("fingerprint: %s vs %s", loaded.Fingerprint(), p.Fingerprint())
	}
	if loaded.Strategy != p.Strategy ||
		loaded.LogSyscalls != p.LogSyscalls || loaded.ProgHash != p.ProgHash {
		t.Errorf("metadata drifted: %+v vs %+v", loaded, p)
	}
	if loaded.Cost != p.Cost {
		t.Errorf("cost: %+v vs %+v", loaded.Cost, p.Cost)
	}
	if loaded.NumInstrumented() != p.NumInstrumented() {
		t.Errorf("instrumented: %d vs %d", loaded.NumInstrumented(), p.NumInstrumented())
	}
	if err := loaded.ValidateForProgram(fakeProgram(t)); err != nil {
		t.Errorf("round-tripped plan does not validate: %v", err)
	}
}

// TestRefinedPlanRoundTripKeepsLineage pins the adaptive loop's durability
// claim: a refined plan survives Save/LoadPlan with its generation and
// parent fingerprint intact, and a generation-0 plan serializes without
// lineage fields (byte-stable with pre-lineage envelopes — the golden-file
// test above is the proof).
func TestRefinedPlanRoundTripKeepsLineage(t *testing.T) {
	base := goldenPlan(t)
	p := &Plan{
		Strategy:     "refine(@8c1f0e2a,gen2,+b4)",
		Instrumented: map[lang.BranchID]bool{0: true, 1: true, 4: true},
		LogSyscalls:  base.LogSyscalls,
		ProgHash:     base.ProgHash,
		Cost:         base.Cost,
		Generation:   2,
		Parent:       base.Fingerprint(),
	}

	path := filepath.Join(t.TempDir(), "refined.json")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"generation": 2`) ||
		!strings.Contains(string(data), `"parent": "`+p.Parent+`"`) {
		t.Errorf("lineage not serialized:\n%s", data)
	}
	loaded, err := LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Generation != 2 || loaded.Parent != p.Parent {
		t.Errorf("lineage drifted: generation %d parent %s", loaded.Generation, loaded.Parent)
	}
	if loaded.Fingerprint() != p.Fingerprint() {
		t.Errorf("fingerprint drifted: %s vs %s", loaded.Fingerprint(), p.Fingerprint())
	}

	// A negative generation is corruption.
	bad := strings.Replace(string(data), `"generation": 2`, `"generation": -2`, 1)
	badPath := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(badPath, []byte(bad), 0o644)
	if _, err := LoadPlan(badPath); err == nil || !strings.Contains(err.Error(), "generation") {
		t.Errorf("negative generation accepted: %v", err)
	}
}

func TestLoadPlanRejectsTampering(t *testing.T) {
	p := goldenPlan(t)
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Quietly flipping the syscall flag must break the fingerprint.
	tampered := strings.Replace(string(data), `"log_syscalls": true`,
		`"log_syscalls": false`, 1)
	if tampered == string(data) {
		t.Fatal("tamper target not found")
	}
	bad := filepath.Join(t.TempDir(), "tampered.json")
	os.WriteFile(bad, []byte(tampered), 0o644)
	if _, err := LoadPlan(bad); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("tampered plan not caught by fingerprint: %v", err)
	}
}

func TestLoadPlanErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadPlan(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	for name, content := range map[string]string{
		"garbage.json":   "{not json",
		"version.json":   `{"version":9}`,
		"negative.json":  `{"version":1,"instrumented_branches":[-1],"fingerprint":""}`,
		"duplicate.json": `{"version":1,"instrumented_branches":[1,1],"fingerprint":""}`,
		"unsorted.json":  `{"version":1,"instrumented_branches":[2,1],"fingerprint":""}`,
		"huge.json":      `{"version":1,"instrumented_branches":[1048576],"fingerprint":""}`,
	} {
		path := filepath.Join(dir, name)
		os.WriteFile(path, []byte(content), 0o644)
		if _, err := LoadPlan(path); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
