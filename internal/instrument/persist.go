package instrument

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"

	"pathlog/internal/lang"
)

// ErrPlanCorrupt marks a plan file whose content is damaged: truncated or
// invalid JSON, a malformed branch set, a negative generation, or a
// fingerprint that does not hash from the content. Store scans test for it
// with errors.Is to skip (and report) damaged entries instead of failing
// the whole scan; every other LoadPlan failure (missing file, unsupported
// version) is a different condition and is not wrapped.
var ErrPlanCorrupt = errors.New("plan file corrupt")

// Plans serialize to a small JSON envelope so a decided plan can be
// shipped to user sites and retained at the developer site: the strategy
// provenance, the program hash, the sorted branch-ID set, the syscall
// flag, the cost estimate, and a self-describing fingerprint verified on
// load (a hand-edited or corrupted plan file fails loudly instead of
// silently instrumenting the wrong branches).

type planJSON struct {
	Version      int          `json:"version"`
	Strategy     string       `json:"strategy,omitempty"`
	ProgHash     string       `json:"prog_hash,omitempty"`
	Instrumented []int        `json:"instrumented_branches"`
	LogSyscalls  bool         `json:"log_syscalls"`
	Cost         CostEstimate `json:"cost"`
	// Refinement lineage (omitted for generation-0 plans, so pre-lineage
	// envelopes and their golden files are byte-identical).
	Generation  int    `json:"generation,omitempty"`
	Parent      string `json:"parent,omitempty"`
	Fingerprint string `json:"fingerprint"`
}

// planVersion is the current plan envelope version.
const planVersion = 1

// Save writes the plan to path.
func (p *Plan) Save(path string) error {
	data, err := p.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Encode renders the plan as envelope bytes — exactly what Save writes to
// disk. An intake service serves these bytes over HTTP so user sites can
// self-update to the current chain head; LoadPlan-equivalent verification
// happens on the receiving side, because the fingerprint travels inside.
func (p *Plan) Encode() ([]byte, error) {
	enc := planJSON{
		Version:     planVersion,
		Strategy:    p.Strategy,
		ProgHash:    p.ProgHash,
		LogSyscalls: p.LogSyscalls,
		Cost:        p.Cost,
		Generation:  p.Generation,
		Parent:      p.Parent,
		Fingerprint: p.Fingerprint(),
	}
	enc.Instrumented = make([]int, 0, len(p.Instrumented))
	for _, id := range p.IDs() {
		enc.Instrumented = append(enc.Instrumented, int(id))
	}
	data, err := json.MarshalIndent(enc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("instrument: encode plan: %w", err)
	}
	return data, nil
}

// maxBranchID is the largest branch ID a plan or recording envelope may
// name. A plan's dense branch table (Plan.Table) is sized by its largest
// instrumented ID, so the decoders refuse larger IDs as corruption rather
// than let a damaged envelope size an arbitrary allocation.
const maxBranchID = 1<<20 - 1

// DecodeBranchSet validates and converts a serialized branch-ID list, as
// found in plan and recording envelopes: negative, duplicate or unsorted
// IDs, and IDs above maxBranchID, are corruption, not data.
func DecodeBranchSet(ids []int) (map[lang.BranchID]bool, error) {
	if !sort.IntsAreSorted(ids) {
		return nil, fmt.Errorf("branch IDs not sorted")
	}
	set := make(map[lang.BranchID]bool, len(ids))
	for i, id := range ids {
		if id < 0 {
			return nil, fmt.Errorf("negative branch ID %d", id)
		}
		if id > maxBranchID {
			return nil, fmt.Errorf("branch ID %d above the largest a plan may name (%d)", id, maxBranchID)
		}
		if i > 0 && ids[i-1] == id {
			return nil, fmt.Errorf("duplicate branch ID %d", id)
		}
		set[lang.BranchID(id)] = true
	}
	return set, nil
}

// LoadPlan reads a plan saved by Save, verifying its fingerprint. A
// damaged file — truncated or otherwise unparseable JSON, a malformed
// branch set, a fingerprint that does not match the content — returns an
// error wrapping ErrPlanCorrupt, so a caller scanning many plan files can
// identify (and skip past) corruption without string-matching.
func LoadPlan(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodePlan(data, path)
}

// DecodePlan decodes plan envelope bytes (what Encode renders), verifying
// the embedded fingerprint the same way LoadPlan does. It is the wire-side
// entry point for sites fetching the chain head over HTTP.
func DecodePlan(data []byte) (*Plan, error) {
	return decodePlan(data, "envelope")
}

func decodePlan(data []byte, label string) (*Plan, error) {
	path := label
	var enc planJSON
	if err := json.Unmarshal(data, &enc); err != nil {
		return nil, fmt.Errorf("instrument: decode plan %s: %w: %w", path, ErrPlanCorrupt, err)
	}
	if enc.Version != planVersion {
		return nil, fmt.Errorf("instrument: unsupported plan version %d in %s", enc.Version, path)
	}
	set, err := DecodeBranchSet(enc.Instrumented)
	if err != nil {
		return nil, fmt.Errorf("instrument: decode plan %s: %w: %w", path, ErrPlanCorrupt, err)
	}
	p := &Plan{
		Strategy:     enc.Strategy,
		Instrumented: set,
		LogSyscalls:  enc.LogSyscalls,
		ProgHash:     enc.ProgHash,
		Cost:         enc.Cost,
		Generation:   enc.Generation,
		Parent:       enc.Parent,
	}
	if enc.Generation < 0 {
		return nil, fmt.Errorf("instrument: decode plan %s: %w: negative generation %d", path, ErrPlanCorrupt, enc.Generation)
	}
	if enc.Fingerprint != "" && p.Fingerprint() != enc.Fingerprint {
		return nil, fmt.Errorf("instrument: decode plan %s: %w: file says fingerprint %s, content hashes to %s (plan file corrupted or edited)",
			path, ErrPlanCorrupt, enc.Fingerprint, p.Fingerprint())
	}
	return p, nil
}
