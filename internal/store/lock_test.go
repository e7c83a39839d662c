package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pathlog/internal/instrument"
	"pathlog/internal/lang"
)

// goldenProfile is a deterministic search profile for the golden-layout
// and round-trip tests, filed under the golden child generation.
func goldenProfile() *instrument.SearchProfile {
	return &instrument.SearchProfile{
		ProgHash:        fixedProgHash,
		PlanFingerprint: goldenChild().Fingerprint(),
		Generation:      1,
		Runs:            87,
		Aborts:          80,
		Reproduced:      true,
		Branches: map[lang.BranchID]*instrument.BranchCost{
			3:  {LoggedExecs: 30},
			9:  {Forks: 4, AbortedRuns: 2, SolverCalls: 6, SolverTime: 1500, LoggedExecs: 12, Disagreements: 3},
			11: {Forks: 40, AbortedRuns: 70, SolverCalls: 90, SolverTime: 90000},
		},
	}
}

func TestProfileRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := goldenProfile()
	if err := s.PutProfile(want); err != nil {
		t.Fatal(err)
	}
	if !s.HasProfile(want.PlanFingerprint) {
		t.Fatal("HasProfile reports false after PutProfile")
	}
	got, err := s.GetProfile(want.PlanFingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if got.Runs != want.Runs || len(got.Branches) != len(want.Branches) {
		t.Errorf("profile round-trip mismatch: got %d runs / %d branches, want %d / %d",
			got.Runs, len(got.Branches), want.Runs, len(want.Branches))
	}
	if got.Branches[9].Disagreements != 3 || got.Branches[9].LoggedExecs != 12 {
		t.Errorf("evidence counters did not round-trip: %+v", got.Branches[9])
	}
	// A re-measurement replaces the retained profile (newest wins).
	want.Runs = 42
	if err := s.PutProfile(want); err != nil {
		t.Fatal(err)
	}
	got, err = s.GetProfile(want.PlanFingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if got.Runs != 42 {
		t.Errorf("re-put did not replace the profile: got %d runs, want 42", got.Runs)
	}
}

func TestProfileRefusals(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutProfile(&instrument.SearchProfile{Runs: 1}); err == nil {
		t.Error("PutProfile accepted an unidentified profile")
	}
	if _, err := s.GetProfile(fixedProgHash); err == nil {
		t.Error("GetProfile resolved a never-retained fingerprint")
	}
	// A profile filed under the wrong fingerprint is damage, not data.
	p := goldenProfile()
	if err := s.PutProfile(p); err != nil {
		t.Fatal(err)
	}
	wrong := goldenPlan().Fingerprint()
	if err := os.Rename(s.profilePath(p.PlanFingerprint), s.profilePath(wrong)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetProfile(wrong); err == nil {
		t.Error("GetProfile accepted a profile whose stamp disagrees with its filename")
	}
	rep, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Profiles != 0 || len(rep.Damaged) != 1 {
		t.Errorf("scan counted %d profiles, %d damaged; want 0 healthy, 1 damaged", rep.Profiles, len(rep.Damaged))
	}
}

// TestLockStaleBreak: a lock file left behind by a dead process must be
// broken by pid-liveness, not waited out.
func TestLockStaleBreak(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// PID 1 is init (alive but EPERM → alive); use an impossible pid. Linux
	// pids max out well below 1<<22 by default.
	deadPid := 1 << 30
	if err := os.WriteFile(filepath.Join(dir, lockFileName), []byte(fmt.Sprintf("%d\n", deadPid)), 0o644); err != nil {
		t.Fatal(err)
	}
	s.lockWait = 2 * time.Second
	if err := s.AppendMeasured(fixedProgHash, "w", goldenPoints()[0]); err != nil {
		t.Fatalf("stale lock was not broken: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, lockFileName)); !os.IsNotExist(err) {
		t.Error("lock file left behind after release")
	}
}

// TestLockHeldTimesOut: a live holder blocks the writer, and the timeout
// error names the holder's pid.
func TestLockHeldTimesOut(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Our own pid is alive by definition; the lock is fresh, so neither
	// staleness rule breaks it.
	if err := os.WriteFile(filepath.Join(dir, lockFileName), []byte(fmt.Sprintf("%d\n", os.Getpid())), 0o644); err != nil {
		t.Fatal(err)
	}
	s.lockWait = 50 * time.Millisecond
	err = s.AppendMeasured(fixedProgHash, "w", goldenPoints()[0])
	if err == nil {
		t.Fatal("write succeeded under a held lock")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("pid %d", os.Getpid())) {
		t.Errorf("timeout error does not name the holder: %v", err)
	}
}

// TestLockConcurrentStores: many Store handles over one directory (the
// cross-process shape, minus the processes) appending measured points must
// not lose writes — the lock serializes the read-modify-write.
func TestLockConcurrentStores(t *testing.T) {
	dir := t.TempDir()
	const writers, perWriter = 8, 5
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := Open(dir)
			if err != nil {
				errs[w] = err
				return
			}
			s.lockWait = 10 * time.Second
			for i := 0; i < perWriter; i++ {
				pt := goldenPoints()[0]
				pt.ReplayRuns = w*1000 + i
				if err := s.AppendMeasured(fixedProgHash, "w", pt); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := s.Measured(fixedProgHash, "w")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != writers*perWriter {
		t.Errorf("store holds %d measured points, want %d (lost writes under contention)",
			len(pts), writers*perWriter)
	}
}

// Keys the profile format carried before the replay search became one
// serial loop: the search's worker count and, per branch, the runs a
// parallel search finished after it was already decided. The branch key is
// spelled in two pieces because it is retired — this fixture is the one
// place that still writes it.
const (
	retiredProfileKey = "workers"
	retiredBranchKey  = "wasted" + "_runs"
)

// TestProfileParentFormatLoads reads a profile written in the older format,
// with the retired keys present and nonzero, and checks that every field
// the current format keeps loads unchanged.
func TestProfileParentFormatLoads(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := goldenProfile()
	if err := s.PutProfile(want); err != nil {
		t.Fatal(err)
	}
	path := s.profilePath(want.PlanFingerprint)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	doc[retiredProfileKey] = 4
	branches := doc["branches"].(map[string]any)
	for id, bc := range branches {
		bc.(map[string]any)[retiredBranchKey] = len(id) + 1
	}
	old, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(old), `"`+retiredBranchKey+`": 2`) {
		t.Fatalf("fixture lacks a nonzero %s:\n%s", retiredBranchKey, old)
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetProfile(want.PlanFingerprint)
	if err != nil {
		t.Fatalf("older-format profile refused: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("older-format profile loaded as\n%+v\nwant\n%+v", got, want)
	}
}
