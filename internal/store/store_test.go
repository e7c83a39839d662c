package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathlog/internal/instrument"
	"pathlog/internal/lang"
)

// fixedProgHash is a deterministic stand-in program identity for golden
// files (a real lang.Program.Hash value is also 32 hex chars).
const fixedProgHash = "00112233445566778899aabbccddeeff"

// goldenPlan builds a fully deterministic plan: fixed branch set, fixed
// strategy, fixed cost — so its fingerprint and its on-disk bytes never
// move unless the envelope format does.
func goldenPlan() *instrument.Plan {
	return &instrument.Plan{
		Strategy:     "union(dynamic,static-residue)",
		Instrumented: map[lang.BranchID]bool{2: true, 3: true, 7: true},
		LogSyscalls:  true,
		ProgHash:     fixedProgHash,
		Cost: instrument.CostEstimate{
			OverheadBitsPerRun: 12.5,
			Modeled:            true,
		},
	}
}

// goldenChild is goldenPlan refined by one generation.
func goldenChild() *instrument.Plan {
	p := goldenPlan()
	child := &instrument.Plan{
		Strategy:     "refine(union(dynamic,static-residue)@x,gen1,+b9)",
		Instrumented: map[lang.BranchID]bool{2: true, 3: true, 7: true, 9: true},
		LogSyscalls:  true,
		ProgHash:     fixedProgHash,
		Generation:   1,
		Parent:       p.Fingerprint(),
		Cost: instrument.CostEstimate{
			OverheadBitsPerRun: 14.5,
			Modeled:            true,
		},
	}
	return child
}

func goldenPoints() []MeasuredPoint {
	return []MeasuredPoint{
		{
			Fingerprint:  goldenPlan().Fingerprint(),
			Strategy:     "union(dynamic,static-residue)",
			OverheadBits: 814,
			ReplayRuns:   1500,
			ReplayMS:     15000,
			Reproduced:   false,
		},
		{
			Fingerprint:  goldenChild().Fingerprint(),
			Strategy:     goldenChild().Strategy,
			Generation:   1,
			OverheadBits: 818,
			ReplayRuns:   87,
			ReplayMS:     283,
			Reproduced:   true,
		},
	}
}

// populate fills a store with the golden plan chain and measured points.
func populate(t *testing.T, s *Store) {
	t.Helper()
	if err := s.PutPlan(goldenPlan()); err != nil {
		t.Fatal(err)
	}
	if err := s.PutPlan(goldenChild()); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendMeasured(fixedProgHash, "userver-exp3", goldenPoints()...); err != nil {
		t.Fatal(err)
	}
}

// checkGolden compares one store file against its checked-in golden,
// byte for byte: the store's on-disk layout is an interchange format
// between sessions (and operators), so accidental drift is an API break.
// STORE_REGEN_GOLDEN=1 regenerates the goldens after a deliberate format
// change.
func checkGolden(t *testing.T, gotPath, goldenName string) {
	t.Helper()
	got, err := os.ReadFile(gotPath)
	if err != nil {
		t.Fatalf("store file missing: %v", err)
	}
	goldenPath := filepath.Join("testdata", goldenName)
	if os.Getenv("STORE_REGEN_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden %s missing (regenerate with STORE_REGEN_GOLDEN=1): %v", goldenName, err)
	}
	if string(got) != string(want) {
		t.Errorf("%s drifted from golden %s:\n--- got ---\n%s\n--- want ---\n%s",
			gotPath, goldenName, got, want)
	}
}

// TestPlanParentFormatLoads reads the golden base and child plans as the
// previous format wrote them, with the modelled replay-runs estimate in
// their cost blocks and the retired method tag, and checks that each loads as the current golden plan:
// same fingerprint, branch set, overhead estimate and lineage. Stores
// written before the format change keep resolving their plans.
func TestPlanParentFormatLoads(t *testing.T) {
	for name, want := range map[string]*instrument.Plan{
		"plan_base_parent_golden.json":  goldenPlan(),
		"plan_child_parent_golden.json": goldenChild(),
	} {
		path := filepath.Join("testdata", name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), `"replay_runs"`) {
			t.Fatalf("%s is not in the parent format (no replay_runs)", name)
		}
		old, err := instrument.LoadPlan(path)
		if err != nil {
			t.Fatalf("%s: parent-format plan refused: %v", name, err)
		}
		if old.Fingerprint() != want.Fingerprint() || fmt.Sprint(old.IDs()) != fmt.Sprint(want.IDs()) {
			t.Errorf("%s: plan %s %v, want %s %v", name, old.Fingerprint(), old.IDs(), want.Fingerprint(), want.IDs())
		}
		if old.Cost != want.Cost || old.Generation != want.Generation || old.Parent != want.Parent {
			t.Errorf("%s: cost %+v gen %d parent %q, want %+v gen %d parent %q", name,
				old.Cost, old.Generation, old.Parent, want.Cost, want.Generation, want.Parent)
		}
	}
}

// TestStoreGoldenLayout pins the store's on-disk layout: the plan file
// path and bytes, the lineage index, and the measured-point file.
func TestStoreGoldenLayout(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, s)

	if err := s.PutProfile(goldenProfile()); err != nil {
		t.Fatal(err)
	}

	fpBase, fpChild := goldenPlan().Fingerprint(), goldenChild().Fingerprint()
	checkGolden(t, filepath.Join(dir, "plans", fpBase+".json"), "plan_base_golden.json")
	checkGolden(t, filepath.Join(dir, "plans", fpChild+".json"), "plan_child_golden.json")
	checkGolden(t, filepath.Join(dir, "lineage", fixedProgHash+".json"), "lineage_golden.json")
	checkGolden(t, filepath.Join(dir, "measured", fixedProgHash, "userver-exp3.json"), "measured_golden.json")
	checkGolden(t, filepath.Join(dir, "profiles", fpChild+".json"), "profile_golden.json")
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	populate(t, s)

	base := goldenPlan()
	got, err := s.GetPlan(base.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != base.Fingerprint() || got.NumInstrumented() != 3 {
		t.Fatalf("round-trip mangled the plan: %+v", got)
	}
	if !s.HasPlan(base.Fingerprint()) || s.HasPlan(strings.Repeat("ff", 16)) {
		t.Error("HasPlan answers wrong")
	}

	// Re-putting retained content is a no-op, not an error.
	if err := s.PutPlan(base); err != nil {
		t.Fatalf("idempotent PutPlan failed: %v", err)
	}

	entries, err := s.Lineage(fixedProgHash)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Generation != 0 || entries[1].Generation != 1 ||
		entries[1].Parent != base.Fingerprint() {
		t.Fatalf("lineage index wrong: %+v", entries)
	}

	pts, err := s.Measured(fixedProgHash, "userver-exp3")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[1].ReplayRuns != 87 || !pts[1].Reproduced {
		t.Fatalf("measured points wrong: %+v", pts)
	}
	// Appends accumulate in observation order.
	if err := s.AppendMeasured(fixedProgHash, "userver-exp3", pts[1]); err != nil {
		t.Fatal(err)
	}
	pts, err = s.Measured(fixedProgHash, "userver-exp3")
	if err != nil || len(pts) != 3 {
		t.Fatalf("append did not accumulate: %d points, %v", len(pts), err)
	}
	// Unknown program / workload: empty, not an error.
	if pts, err := s.Measured(strings.Repeat("aa", 16), "userver-exp3"); err != nil || len(pts) != 0 {
		t.Fatalf("unknown program: %v %v", pts, err)
	}
	if pts, err := s.Measured(fixedProgHash, "never-measured"); err != nil || len(pts) != 0 {
		t.Fatalf("unknown workload: %v %v", pts, err)
	}
}

func TestGetPlanNotFound(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fp := strings.Repeat("ab", 16)
	_, err = s.GetPlan(fp)
	if !errors.Is(err, ErrPlanNotFound) {
		t.Fatalf("want ErrPlanNotFound, got %v", err)
	}
	if !strings.Contains(err.Error(), fp) {
		t.Errorf("error does not name the fingerprint: %v", err)
	}
}

// A truncated plan file is identified as corrupt (instrument.ErrPlanCorrupt,
// the LoadPlan bugfix) and a scan skips past it while reporting it.
func TestScanSkipsDamagedEntries(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	populate(t, s)

	// Truncate one retained plan mid-JSON.
	victim := filepath.Join(s.Dir(), "plans", goldenPlan().Fingerprint()+".json")
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := s.GetPlan(goldenPlan().Fingerprint()); !errors.Is(err, instrument.ErrPlanCorrupt) {
		t.Fatalf("truncated plan not identified as corrupt: %v", err)
	}

	rep, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plans != 1 {
		t.Errorf("scan counted %d healthy plans, want 1", rep.Plans)
	}
	if rep.MeasuredPoints != 2 {
		t.Errorf("scan counted %d measured points, want 2", rep.MeasuredPoints)
	}
	if len(rep.Damaged) != 1 || !errors.Is(rep.Damaged[0].Err, instrument.ErrPlanCorrupt) {
		t.Fatalf("scan damage report wrong: %+v", rep.Damaged)
	}
	if rep.Damaged[0].Path != victim {
		t.Errorf("damage names %s, want %s", rep.Damaged[0].Path, victim)
	}

	// The undamaged sibling still resolves.
	if _, err := s.GetPlan(goldenChild().Fingerprint()); err != nil {
		t.Errorf("damage bled onto a healthy entry: %v", err)
	}

	// Damage the lineage index and a measured file too: the scan reports
	// all three, identified by path, and still returns.
	lineage := filepath.Join(s.Dir(), "lineage", fixedProgHash+".json")
	if err := os.WriteFile(lineage, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	measured := filepath.Join(s.Dir(), "measured", fixedProgHash, "userver-exp3.json")
	if err := os.WriteFile(measured, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Measured(fixedProgHash, "userver-exp3"); !errors.Is(err, ErrDamaged) {
		t.Errorf("damaged measured file not marked ErrDamaged: %v", err)
	}
	if _, err := s.Lineage(fixedProgHash); !errors.Is(err, ErrDamaged) {
		t.Errorf("damaged lineage index not marked ErrDamaged: %v", err)
	}
	rep, err = s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Damaged) != 3 {
		t.Fatalf("scan reports %d damaged entries, want 3 (plan+lineage+measured): %+v",
			len(rep.Damaged), rep.Damaged)
	}
	if rep.MeasuredPoints != 0 {
		t.Errorf("scan counted %d points from a damaged measured file", rep.MeasuredPoints)
	}
}

func TestStoreKeyValidation(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Path traversal and non-hex stamps are refused everywhere.
	for _, bad := range []string{"", "../../etc/passwd", "ABCDEF", "plan.json", "a/b"} {
		if _, err := s.GetPlan(bad); err == nil || errors.Is(err, ErrPlanNotFound) {
			t.Errorf("GetPlan(%q) = %v, want key validation error", bad, err)
		}
		if _, err := s.Measured(bad, "w"); err == nil {
			t.Errorf("Measured(%q) accepted a bad program hash", bad)
		}
	}
	// A plan without a program hash has no deployment identity.
	p := goldenPlan()
	p.ProgHash = ""
	if err := s.PutPlan(p); err == nil {
		t.Error("PutPlan accepted a plan with no program hash")
	}
	// Workload names sanitize instead of escaping the directory.
	if err := s.AppendMeasured(fixedProgHash, "../escape", goldenPoints()[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), "measured", fixedProgHash, ".._escape.json")); err != nil {
		t.Errorf("workload name not sanitized into the store: %v", err)
	}
}

func TestChainHead(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ChainHead(fixedProgHash); !errors.Is(err, ErrPlanNotFound) {
		t.Fatalf("ChainHead on empty store: want ErrPlanNotFound, got %v", err)
	}
	if err := s.PutPlan(goldenPlan()); err != nil {
		t.Fatal(err)
	}
	head, err := s.ChainHead(fixedProgHash)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := head.Fingerprint(), goldenPlan().Fingerprint(); got != want {
		t.Fatalf("ChainHead after gen-0 put: got %s, want %s", got, want)
	}
	if err := s.PutPlan(goldenChild()); err != nil {
		t.Fatal(err)
	}
	head, err = s.ChainHead(fixedProgHash)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := head.Fingerprint(), goldenChild().Fingerprint(); got != want {
		t.Fatalf("ChainHead after refinement: got %s, want %s", got, want)
	}
	if head.Generation != 1 {
		t.Fatalf("ChainHead generation: got %d, want 1", head.Generation)
	}
}
