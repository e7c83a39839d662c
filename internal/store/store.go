package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"pathlog/internal/instrument"
)

// ErrPlanNotFound reports a fingerprint with no retained plan in the
// store. Replay surfaces it when a recording's stamp matches nothing — the
// deployment shipped a plan the developer site never retained, or the
// store directory is the wrong one.
var ErrPlanNotFound = errors.New("plan not found in store")

// ErrProfileNotFound reports a plan fingerprint with no retained search
// profile — the generation was deployed before profile retention existed,
// or its replay never completed.
var ErrProfileNotFound = errors.New("search profile not found in store")

// ErrDamaged marks an unreadable store index file (lineage or measured
// points). Frontier sweeps skip damaged measured history (the estimates
// stand and Scan reports the file); lineage damage stays fatal for
// session operations, because generation bookkeeping built on a damaged
// index could silently rewind refinement chains.
var ErrDamaged = errors.New("store entry damaged")

// Store is an on-disk plan and measurement store rooted at one directory.
// See the package comment for the layout. A Store is safe for concurrent
// use within one process, and index rewrites (lineage, measured) are
// additionally serialized across processes through an flock-style lock
// file with stale-lock detection by pid and age (see lock.go), so
// concurrent record and tune runs over one store cannot interleave index
// writes.
type Store struct {
	dir string
	mu  sync.Mutex // serializes read-modify-write of the index files
	// lockWait / lockStaleAge override the cross-process lock bounds; zero
	// selects the defaults (tests shorten them).
	lockWait     time.Duration
	lockStaleAge time.Duration
}

// Open opens (creating if needed) the store rooted at dir.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"plans", "lineage", "measured", "profiles"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// checkKey guards every value interpolated into a store path: plan
// fingerprints and program hashes are lowercase hex by construction, so
// anything else in a stamp is corruption (or an attempted path escape).
func checkKey(kind, key string) error {
	if key == "" {
		return fmt.Errorf("store: empty %s", kind)
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("store: invalid %s %q (want lowercase hex)", kind, key)
		}
	}
	return nil
}

// sanitizeWorkload maps a workload name to a filename: hex and the common
// name characters pass through, everything else becomes '_', and an empty
// name becomes "default" (matching the Session's unnamed-workload key).
func sanitizeWorkload(name string) string {
	if name == "" {
		return "default"
	}
	out := make([]rune, 0, len(name))
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// writeFileAtomic writes data next to path and renames it into place, so a
// crash mid-write leaves the previous version intact rather than a
// truncated file.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func (s *Store) planPath(fingerprint string) string {
	return filepath.Join(s.dir, "plans", fingerprint+".json")
}

func (s *Store) lineagePath(progHash string) string {
	return filepath.Join(s.dir, "lineage", progHash+".json")
}

func (s *Store) measuredPath(progHash, workload string) string {
	return filepath.Join(s.dir, "measured", progHash, sanitizeWorkload(workload)+".json")
}

// PutPlan retains a plan under its fingerprint and records it in the
// program's lineage index. The store is content-addressed, so re-putting
// an already-retained plan rewrites nothing; a plan without a program hash
// is refused (it has no deployment identity to file it under).
func (s *Store) PutPlan(p *instrument.Plan) error {
	if p == nil {
		return fmt.Errorf("store: nil plan")
	}
	if p.ProgHash == "" {
		return fmt.Errorf("store: plan %q has no program hash — only plans built for an identified program can be retained", p.Strategy)
	}
	fp := p.Fingerprint()
	if err := checkKey("plan fingerprint", fp); err != nil {
		return err
	}
	if err := checkKey("program hash", p.ProgHash); err != nil {
		return err
	}
	return s.withIndexLock(func() error {
		path := s.planPath(fp)
		if _, err := os.Stat(path); err != nil {
			data, err := p.Encode()
			if err != nil {
				return fmt.Errorf("store: retain plan %s: %w", fp, err)
			}
			if err := writeFileAtomic(path, data); err != nil {
				return fmt.Errorf("store: retain plan %s: %w", fp, err)
			}
		}
		return s.indexLineageLocked(p, fp)
	})
}

// GetPlan resolves a retained plan by fingerprint, re-verifying the
// content hash on the way out. An unknown fingerprint returns an error
// wrapping ErrPlanNotFound that names the fingerprint; a damaged file
// returns the instrument.ErrPlanCorrupt-wrapped load error.
func (s *Store) GetPlan(fingerprint string) (*instrument.Plan, error) {
	if err := checkKey("plan fingerprint", fingerprint); err != nil {
		return nil, err
	}
	p, err := instrument.LoadPlan(s.planPath(fingerprint))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("store: %w: fingerprint %s (no plan with this stamp was ever retained here)",
			ErrPlanNotFound, fingerprint)
	}
	if err != nil {
		return nil, err
	}
	if got := p.Fingerprint(); got != fingerprint {
		return nil, fmt.Errorf("store: plan filed under %s hashes to %s (%w)",
			fingerprint, got, instrument.ErrPlanCorrupt)
	}
	return p, nil
}

// HasPlan reports whether a plan with the fingerprint is retained (it does
// not verify the file's content; GetPlan does).
func (s *Store) HasPlan(fingerprint string) bool {
	if checkKey("plan fingerprint", fingerprint) != nil {
		return false
	}
	_, err := os.Stat(s.planPath(fingerprint))
	return err == nil
}

// LineageEntry is one retained plan's position in its program's
// refinement chains.
type LineageEntry struct {
	Fingerprint string `json:"fingerprint"`
	Generation  int    `json:"generation"`
	Parent      string `json:"parent,omitempty"`
	Strategy    string `json:"strategy,omitempty"`
}

// lineageJSON is the on-disk lineage index for one program hash.
type lineageJSON struct {
	Version  int            `json:"version"`
	ProgHash string         `json:"prog_hash"`
	Plans    []LineageEntry `json:"plans"`
}

const indexVersion = 1

// Lineage returns the retained plans' lineage entries for a program, in
// (generation, fingerprint) order. A program with no retained plans
// returns an empty slice, not an error.
func (s *Store) Lineage(progHash string) ([]LineageEntry, error) {
	if err := checkKey("program hash", progHash); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, err := s.readLineageLocked(progHash)
	if err != nil {
		return nil, err
	}
	return idx.Plans, nil
}

// ChainHead resolves the program's current chain-head plan: the retained
// plan with the highest generation (ties broken by fingerprint order, so
// the head is deterministic for a given lineage index). This is what an
// intake service serves to user sites asking "what should I record under
// now?". A program with no retained plans returns an error wrapping
// ErrPlanNotFound.
func (s *Store) ChainHead(progHash string) (*instrument.Plan, error) {
	entries, err := s.Lineage(progHash)
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("store: %w: no plans retained for program %s", ErrPlanNotFound, progHash)
	}
	// Lineage is sorted by (generation, fingerprint); the last entry is the
	// head.
	return s.GetPlan(entries[len(entries)-1].Fingerprint)
}

func (s *Store) readLineageLocked(progHash string) (*lineageJSON, error) {
	data, err := os.ReadFile(s.lineagePath(progHash))
	if errors.Is(err, os.ErrNotExist) {
		return &lineageJSON{Version: indexVersion, ProgHash: progHash}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read lineage index: %w", err)
	}
	var idx lineageJSON
	if err := json.Unmarshal(data, &idx); err != nil {
		return nil, fmt.Errorf("store: lineage index for %s: %w: %w", progHash, ErrDamaged, err)
	}
	return &idx, nil
}

func (s *Store) indexLineageLocked(p *instrument.Plan, fp string) error {
	idx, err := s.readLineageLocked(p.ProgHash)
	if err != nil {
		return err
	}
	for _, e := range idx.Plans {
		if e.Fingerprint == fp {
			return nil // content-addressed: already indexed
		}
	}
	idx.Plans = append(idx.Plans, LineageEntry{
		Fingerprint: fp,
		Generation:  p.Generation,
		Parent:      p.Parent,
		Strategy:    p.Strategy,
	})
	sort.Slice(idx.Plans, func(i, j int) bool {
		if idx.Plans[i].Generation != idx.Plans[j].Generation {
			return idx.Plans[i].Generation < idx.Plans[j].Generation
		}
		return idx.Plans[i].Fingerprint < idx.Plans[j].Fingerprint
	})
	data, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode lineage index: %w", err)
	}
	return writeFileAtomic(s.lineagePath(p.ProgHash), data)
}

func (s *Store) profilePath(fingerprint string) string {
	return filepath.Join(s.dir, "profiles", fingerprint+".json")
}

// PutProfile retains the search profile measured under a plan generation,
// filed under the plan's fingerprint (profiles/<fingerprint>.json). Unlike
// plans, profiles are not content-addressed: a later measurement of the
// same generation atomically replaces the earlier one — the newest
// observation is the generation's evidence. A profile
// with no plan fingerprint or program hash has no generation to be filed
// under and is refused.
func (s *Store) PutProfile(p *instrument.SearchProfile) error {
	if p == nil {
		return fmt.Errorf("store: nil search profile")
	}
	if p.PlanFingerprint == "" || p.ProgHash == "" {
		return fmt.Errorf("store: search profile carries no plan fingerprint or program hash — only profiles measured under an identified plan can be retained")
	}
	if err := checkKey("plan fingerprint", p.PlanFingerprint); err != nil {
		return err
	}
	if err := checkKey("program hash", p.ProgHash); err != nil {
		return err
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode search profile: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return writeFileAtomic(s.profilePath(p.PlanFingerprint), data)
}

// GetProfile resolves the retained search profile for a plan fingerprint.
// An unknown fingerprint returns an error wrapping ErrProfileNotFound; a
// damaged file, or one whose stamp disagrees with the fingerprint it is
// filed under, returns an ErrDamaged-wrapped error.
func (s *Store) GetProfile(fingerprint string) (*instrument.SearchProfile, error) {
	if err := checkKey("plan fingerprint", fingerprint); err != nil {
		return nil, err
	}
	p, err := instrument.LoadSearchProfile(s.profilePath(fingerprint))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("store: %w: fingerprint %s", ErrProfileNotFound, fingerprint)
	}
	if err != nil {
		return nil, fmt.Errorf("store: profile for %s: %w: %w", fingerprint, ErrDamaged, err)
	}
	if p.PlanFingerprint != fingerprint {
		return nil, fmt.Errorf("store: profile filed under %s was measured under plan %s (%w)",
			fingerprint, p.PlanFingerprint, ErrDamaged)
	}
	return p, nil
}

// HasProfile reports whether a profile is retained for the fingerprint
// (without verifying its content; GetProfile does).
func (s *Store) HasProfile(fingerprint string) bool {
	if checkKey("plan fingerprint", fingerprint) != nil {
		return false
	}
	_, err := os.Stat(s.profilePath(fingerprint))
	return err == nil
}

// MeasuredPoint is one observed (overhead, debug-time) coordinate for a
// deployed plan on one workload: what the user-site run actually logged
// and how long the developer-site search actually took — ground truth next
// to the cost model's estimates.
type MeasuredPoint struct {
	// Fingerprint identifies the deployed plan (and resolves it via
	// GetPlan); Strategy and Generation echo its provenance for rendering.
	Fingerprint string `json:"fingerprint"`
	Strategy    string `json:"strategy,omitempty"`
	Generation  int    `json:"generation,omitempty"`
	// OverheadBits is the measured record overhead: bits the user-site run
	// logged under the plan.
	OverheadBits int64 `json:"overhead_bits"`
	// ReplayRuns and ReplayMS measure the developer-site search. A point
	// with Reproduced false is budget-censored — the paper's ∞ — and is
	// excluded from frontier merging (the runs are a lower bound, not a
	// measurement).
	ReplayRuns int   `json:"replay_runs"`
	ReplayMS   int64 `json:"replay_ms"`
	Reproduced bool  `json:"reproduced"`
}

// measuredJSON is the on-disk measured-point file for one (program hash,
// workload) pair. Points append in observation order; readers that want
// one value per fingerprint take the latest.
type measuredJSON struct {
	Version  int             `json:"version"`
	ProgHash string          `json:"prog_hash"`
	Workload string          `json:"workload"`
	Points   []MeasuredPoint `json:"points"`
}

// AppendMeasured appends observed points for a workload to the program's
// measured-point file, preserving observation order.
func (s *Store) AppendMeasured(progHash, workload string, pts ...MeasuredPoint) error {
	if len(pts) == 0 {
		return nil
	}
	if err := checkKey("program hash", progHash); err != nil {
		return err
	}
	for _, pt := range pts {
		if err := checkKey("plan fingerprint", pt.Fingerprint); err != nil {
			return err
		}
	}
	return s.withIndexLock(func() error {
		path := s.measuredPath(progHash, workload)
		m, err := readMeasured(path)
		if errors.Is(err, os.ErrNotExist) {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return fmt.Errorf("store: append measured: %w", err)
			}
			m = &measuredJSON{Version: indexVersion, ProgHash: progHash, Workload: workload}
		} else if err != nil {
			return err
		}
		m.Points = append(m.Points, pts...)
		data, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			return fmt.Errorf("store: encode measured points: %w", err)
		}
		return writeFileAtomic(path, data)
	})
}

// Measured returns the observed points for a (program, workload) pair in
// observation order. No measurements yet returns an empty slice, not an
// error.
func (s *Store) Measured(progHash, workload string) ([]MeasuredPoint, error) {
	if err := checkKey("program hash", progHash); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := readMeasured(s.measuredPath(progHash, workload))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return m.Points, nil
}

func readMeasured(path string) (*measuredJSON, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m measuredJSON
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: measured points file %s: %w: %w", path, ErrDamaged, err)
	}
	return &m, nil
}

// Damage names one unreadable store entry found by Scan.
type Damage struct {
	Path string
	Err  error
}

// ScanReport summarizes a store scan: how much is retained and which
// entries could not be read.
type ScanReport struct {
	// Plans counts retained plans that load and verify.
	Plans int
	// Profiles counts retained search profiles that load and match the
	// fingerprint they are filed under.
	Profiles int
	// MeasuredPoints counts points across all readable measured files.
	MeasuredPoints int
	// Damaged lists entries that failed to load (corrupt plan files,
	// unreadable indexes); the scan skips them instead of failing.
	Damaged []Damage
}

// Scan walks the whole store — plans, lineage indexes, measured files —
// verifying every retained plan and counting measured points. Damaged
// entries — a truncated plan file, an edited envelope whose fingerprint
// no longer matches, an unreadable index — are skipped and reported in
// the ScanReport rather than failing the scan, so one bad file cannot
// hide the rest of the store.
func (s *Store) Scan() (*ScanReport, error) {
	rep := &ScanReport{}
	plans, err := filepath.Glob(filepath.Join(s.dir, "plans", "*.json"))
	if err != nil {
		return nil, fmt.Errorf("store: scan: %w", err)
	}
	sort.Strings(plans)
	for _, path := range plans {
		fp := strings.TrimSuffix(filepath.Base(path), ".json")
		p, err := instrument.LoadPlan(path)
		if err == nil && p.Fingerprint() != fp {
			err = fmt.Errorf("filed under %s but hashes to %s (%w)", fp, p.Fingerprint(), instrument.ErrPlanCorrupt)
		}
		if err != nil {
			rep.Damaged = append(rep.Damaged, Damage{Path: path, Err: err})
			continue
		}
		rep.Plans++
	}
	profiles, err := filepath.Glob(filepath.Join(s.dir, "profiles", "*.json"))
	if err != nil {
		return nil, fmt.Errorf("store: scan: %w", err)
	}
	sort.Strings(profiles)
	for _, path := range profiles {
		fp := strings.TrimSuffix(filepath.Base(path), ".json")
		if _, err := s.GetProfile(fp); err != nil {
			rep.Damaged = append(rep.Damaged, Damage{Path: path, Err: err})
			continue
		}
		rep.Profiles++
	}
	lineage, err := filepath.Glob(filepath.Join(s.dir, "lineage", "*.json"))
	if err != nil {
		return nil, fmt.Errorf("store: scan: %w", err)
	}
	sort.Strings(lineage)
	for _, path := range lineage {
		data, err := os.ReadFile(path)
		if err == nil {
			var idx lineageJSON
			if uerr := json.Unmarshal(data, &idx); uerr != nil {
				err = fmt.Errorf("lineage index: %w: %w", ErrDamaged, uerr)
			}
		}
		if err != nil {
			rep.Damaged = append(rep.Damaged, Damage{Path: path, Err: err})
		}
	}
	measured, err := filepath.Glob(filepath.Join(s.dir, "measured", "*", "*.json"))
	if err != nil {
		return nil, fmt.Errorf("store: scan: %w", err)
	}
	sort.Strings(measured)
	for _, path := range measured {
		m, err := readMeasured(path)
		if err != nil {
			rep.Damaged = append(rep.Damaged, Damage{Path: path, Err: err})
			continue
		}
		rep.MeasuredPoints += len(m.Points)
	}
	return rep, nil
}
