package replay

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathlog/internal/instrument"
	"pathlog/internal/world"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

func TestRecordingSaveLoadRoundTrip(t *testing.T) {
	f := buildFixture(t, instrument.MethodDynamicStatic)
	path := filepath.Join(t.TempDir(), "bug.report")
	if err := f.rec.Save(path); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadRecordingFor(path, f.prog)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Plan.Strategy != f.rec.Plan.Strategy {
		t.Errorf("strategy: %q vs %q", loaded.Plan.Strategy, f.rec.Plan.Strategy)
	}
	if loaded.Plan.NumInstrumented() != f.rec.Plan.NumInstrumented() {
		t.Errorf("instrumented: %d vs %d",
			loaded.Plan.NumInstrumented(), f.rec.Plan.NumInstrumented())
	}
	// The stamp must survive and agree with the reloaded plan.
	if loaded.Fingerprint == "" || loaded.Fingerprint != f.rec.Plan.Fingerprint() {
		t.Errorf("fingerprint: %q vs %q", loaded.Fingerprint, f.rec.Plan.Fingerprint())
	}
	if loaded.Plan.Cost != f.rec.Plan.Cost {
		t.Errorf("cost: %+v vs %+v", loaded.Plan.Cost, f.rec.Plan.Cost)
	}
	if loaded.Trace.Len() != f.rec.Trace.Len() {
		t.Fatalf("trace bits: %d vs %d", loaded.Trace.Len(), f.rec.Trace.Len())
	}
	for i := int64(0); i < loaded.Trace.Len(); i++ {
		if loaded.Trace.Bit(i) != f.rec.Trace.Bit(i) {
			t.Fatalf("bit %d differs", i)
		}
	}
	if loaded.Crash != f.rec.Crash {
		t.Errorf("crash: %+v vs %+v", loaded.Crash, f.rec.Crash)
	}
	if (loaded.SysLog == nil) != (f.rec.SysLog == nil) {
		t.Error("syslog presence differs")
	}

	// The loaded recording must replay identically.
	eng := New(f.prog, f.spec, world.NewRegistry(), loaded, Options{MaxRuns: 300})
	res := eng.Reproduce(context.Background())
	if !res.Reproduced {
		t.Fatalf("loaded recording did not reproduce: %+v", res)
	}
}

// TestRecordingV1FixtureStillLoads is the backward-compat gate: the
// checked-in version-1 report (produced before envelopes carried a
// provenance stamp) must load, validate leniently, and replay under the
// branch set of the plan it was recorded with. The fixture is a historical
// artifact, written by a version-1 build; no test rewrites it.
func TestRecordingV1FixtureStillLoads(t *testing.T) {
	fixturePath := filepath.Join("testdata", "recording_v1.json")
	f := buildFixture(t, instrument.MethodDynamicStatic)
	rec, err := LoadRecordingFor(fixturePath, f.prog)
	if err != nil {
		t.Fatalf("v1 fixture rejected: %v", err)
	}
	if rec.Fingerprint != "" {
		t.Errorf("v1 recording grew a fingerprint: %q", rec.Fingerprint)
	}
	if rec.Plan.ProgHash != "" || rec.Plan.Strategy != "" {
		t.Errorf("v1 recording grew provenance: %+v", rec.Plan)
	}
	if got, want := fmt.Sprint(rec.Plan.IDs()), fmt.Sprint(f.rec.Plan.IDs()); got != want || !rec.Plan.LogSyscalls {
		t.Errorf("v1 plan logs %s (syscalls %v), want %s (syscalls true)", got, rec.Plan.LogSyscalls, want)
	}
	eng := New(f.prog, f.spec, world.NewRegistry(), rec, Options{MaxRuns: 300})
	if res := eng.Reproduce(context.Background()); !res.Reproduced {
		t.Fatalf("v1 recording did not reproduce: %+v", res)
	}
}

// TestRecordingV2GoldenFile pins the current envelope byte-for-byte.
func TestRecordingV2GoldenFile(t *testing.T) {
	golden := filepath.Join("testdata", "recording_v2_golden.json")
	f := buildFixture(t, instrument.MethodDynamicStatic)
	path := filepath.Join(t.TempDir(), "bug.report")
	if err := f.rec.Save(path); err != nil {
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
		t.Errorf("recording serialization drifted from golden file:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// And the golden file itself loads and validates.
	if _, err := LoadRecordingFor(golden, f.prog); err != nil {
		t.Errorf("golden recording rejected: %v", err)
	}
}

// TestRecordingV2ParentFormatLoads reads the version-2 golden as the
// previous format wrote it, with the modelled replay-runs estimate in the
// plan's cost block: it loads, validates, and carries the current golden's
// plan fingerprint, cost and trace, so reports filed before the format
// change still replay.
func TestRecordingV2ParentFormatLoads(t *testing.T) {
	f := buildFixture(t, instrument.MethodDynamicStatic)
	old, err := LoadRecordingFor(filepath.Join("testdata", "recording_v2_parent.json"), f.prog)
	if err != nil {
		t.Fatalf("parent-format recording rejected: %v", err)
	}
	cur, err := LoadRecordingFor(filepath.Join("testdata", "recording_v2_golden.json"), f.prog)
	if err != nil {
		t.Fatal(err)
	}
	if old.Fingerprint != cur.Fingerprint || old.Plan.Cost != cur.Plan.Cost ||
		old.Trace.Len() != cur.Trace.Len() || old.Crash != cur.Crash {
		t.Errorf("parent-format recording loaded as %s %+v (%d bits), want %s %+v (%d bits)",
			old.Fingerprint, old.Plan.Cost, old.Trace.Len(), cur.Fingerprint, cur.Plan.Cost, cur.Trace.Len())
	}
}

func TestRecordingFileHasNoInputBytes(t *testing.T) {
	// The serialized report must not contain the user's distinctive input.
	f := buildFixture(t, instrument.MethodAll)
	path := filepath.Join(t.TempDir(), "bug.report")
	if err := f.rec.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "PQ") {
		// "PQ" appearing inside base64 is possible but the check also
		// guards the JSON fields; tolerate base64 collisions only if the
		// raw trace bytes themselves do not spell the input.
		if strings.Contains(string(f.rec.Trace.Bytes()), "PQ") {
			t.Skip("coincidental bit pattern")
		}
		t.Error("report appears to contain the user's input bytes")
	}
	for _, field := range []string{"instrumented_branches", "trace_data", "crash", "plan_fingerprint"} {
		if !strings.Contains(string(data), field) {
			t.Errorf("missing field %q", field)
		}
	}
}

// mutateRecording saves the fixture, applies a JSON-level edit, and
// returns the path of the edited report.
func mutateRecording(t *testing.T, rec *Recording, edit func(map[string]any)) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bug.report")
	if err := rec.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var enc map[string]any
	if err := json.Unmarshal(data, &enc); err != nil {
		t.Fatal(err)
	}
	edit(enc)
	out, err := json.Marshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadRecordingHardening(t *testing.T) {
	f := buildFixture(t, instrument.MethodDynamicStatic)
	cases := map[string]func(map[string]any){
		"trace_bits exceeds data": func(m map[string]any) {
			m["trace_bits"] = float64(1 << 20)
		},
		"trace_bits negative": func(m map[string]any) {
			m["trace_bits"] = float64(-1)
		},
		"trace_bits undercounts data": func(m map[string]any) {
			m["trace_bits"] = float64(0)
		},
		"negative branch ID": func(m map[string]any) {
			m["instrumented_branches"] = []any{float64(-3), float64(1)}
		},
		"duplicate branch ID": func(m map[string]any) {
			m["instrumented_branches"] = []any{float64(1), float64(1)}
		},
		"unsorted branch IDs": func(m map[string]any) {
			m["instrumented_branches"] = []any{float64(2), float64(1)}
		},
		"fingerprint mismatch": func(m map[string]any) {
			m["log_syscalls"] = false // flag no longer matches the stamp
		},
		"unknown version": func(m map[string]any) {
			m["version"] = float64(9)
		},
		// Lineage lives outside the fingerprint, so it gets its own
		// structural check — LoadPlan rejects the same corruption.
		"negative generation": func(m map[string]any) {
			m["generation"] = float64(-3)
		},
	}
	for name, edit := range cases {
		path := mutateRecording(t, f.rec, edit)
		if _, err := LoadRecording(path); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestLoadRecordingForWrongProgram: a recording from one build must be
// refused for another, both on out-of-range branch IDs and on the program
// hash.
func TestLoadRecordingForWrongProgram(t *testing.T) {
	f := buildFixture(t, instrument.MethodAll)
	path := filepath.Join(t.TempDir(), "bug.report")
	if err := f.rec.Save(path); err != nil {
		t.Fatal(err)
	}
	other := compile(t, `int main() { return 0; }`) // no branches at all
	if _, err := LoadRecordingFor(path, other); err == nil {
		t.Error("recording accepted for a program without its branches")
	}
	// A later build of the "same" program: branch IDs fit (still two
	// branches) but their source positions moved, so the hash differs.
	similar := compile(t, `
int main() {
	char a[8];
	int pad = 0;
	getarg(0, a, 8);
	if (a[0] == 'P') {
		if (a[1] == 'Q') {
			crash(1);
		}
	}
	return pad;
}
`)
	if _, err := LoadRecordingFor(path, similar); err == nil {
		t.Error("recording accepted for a different program with compatible IDs")
	}
}

func TestLoadRecordingErrors(t *testing.T) {
	if _, err := LoadRecording(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file must error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("{not json"), 0o644)
	if _, err := LoadRecording(bad); err == nil {
		t.Error("malformed JSON must error")
	}
	wrongVersion := filepath.Join(t.TempDir(), "v9.json")
	os.WriteFile(wrongVersion, []byte(`{"version":9}`), 0o644)
	if _, err := LoadRecording(wrongVersion); err == nil {
		t.Error("unknown version must error")
	}
}

// TestRecordingRefEnvelope round-trips the stamped-only reference
// envelope (version 3): no plan travels, the stamp does, and the
// recording replays once the retained plan is attached — the store-backed
// deployment path.
func TestRecordingRefEnvelope(t *testing.T) {
	f := buildFixture(t, instrument.MethodDynamicStatic)
	path := filepath.Join(t.TempDir(), "bug.report")
	if err := f.rec.SaveRef(path); err != nil {
		t.Fatal(err)
	}

	// The file must not embed the plan's branch set.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "instrumented_branches") {
		t.Fatal("reference envelope leaked the instrumented branch set")
	}

	loaded, err := LoadRecording(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Plan != nil {
		t.Fatal("reference envelope loaded with an embedded plan")
	}
	if want := f.rec.Plan.Fingerprint(); loaded.Fingerprint != want {
		t.Errorf("stamp %q, want %q", loaded.Fingerprint, want)
	}
	if loaded.ProgHash != f.rec.Plan.ProgHash {
		t.Errorf("prog hash %q, want %q", loaded.ProgHash, f.rec.Plan.ProgHash)
	}
	if loaded.Trace.Len() != f.rec.Trace.Len() {
		t.Fatalf("trace bits %d, want %d", loaded.Trace.Len(), f.rec.Trace.Len())
	}
	if (loaded.SysLog == nil) != (f.rec.SysLog == nil) {
		t.Error("syslog presence differs")
	}

	// Unresolved, it cannot be validated — and the error names the stamp
	// and points at the plan store.
	err = loaded.Validate(f.prog)
	if err == nil || !strings.Contains(err.Error(), loaded.Fingerprint) ||
		!strings.Contains(err.Error(), "WithPlanStore") {
		t.Errorf("unresolved reference recording validated, or unhelpfully refused: %v", err)
	}

	// LoadRecordingFor refuses it for the same reason (it cannot validate
	// a plan that is not there).
	if _, err := LoadRecordingFor(path, f.prog); err == nil {
		t.Error("LoadRecordingFor accepted an unresolved reference recording")
	}

	// With the retained plan attached (what Session.Replay does via the
	// store), it validates and replays identically.
	loaded.Plan = f.rec.Plan
	if err := loaded.Validate(f.prog); err != nil {
		t.Fatalf("resolved reference recording rejected: %v", err)
	}
	eng := New(f.prog, f.spec, world.NewRegistry(), loaded, Options{MaxRuns: 300})
	if res := eng.Reproduce(context.Background()); !res.Reproduced {
		t.Fatalf("resolved reference recording did not reproduce: %+v", res)
	}
}

// A reference envelope that smuggles a branch set, or lost its stamp, is
// corrupt — there must be exactly one plan identity, the fingerprint.
func TestRefEnvelopeHardening(t *testing.T) {
	f := buildFixture(t, instrument.MethodDynamicStatic)
	dir := t.TempDir()
	path := filepath.Join(dir, "bug.report")
	if err := f.rec.SaveRef(path); err != nil {
		t.Fatal(err)
	}
	mutate := func(name string, edit func(enc map[string]any)) string {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var enc map[string]any
		if err := json.Unmarshal(data, &enc); err != nil {
			t.Fatal(err)
		}
		edit(enc)
		out, err := json.Marshal(enc)
		if err != nil {
			t.Fatal(err)
		}
		bad := filepath.Join(dir, name)
		if err := os.WriteFile(bad, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return bad
	}
	noStamp := mutate("nostamp.json", func(enc map[string]any) {
		delete(enc, "plan_fingerprint")
	})
	if _, err := LoadRecording(noStamp); err == nil {
		t.Error("reference envelope without a stamp loaded")
	}
	smuggled := mutate("smuggled.json", func(enc map[string]any) {
		enc["instrumented_branches"] = []int{0, 1}
	})
	if _, err := LoadRecording(smuggled); err == nil {
		t.Error("reference envelope with a smuggled branch set loaded")
	}
}
