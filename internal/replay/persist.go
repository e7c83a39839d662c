package replay

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"

	"pathlog/internal/instrument"
	"pathlog/internal/lang"
	"pathlog/internal/oskernel"
	"pathlog/internal/trace"
	"pathlog/internal/vm"
)

// Recordings serialize to a small JSON envelope: the instrumented branch IDs
// (the plan the developer retained), the packed bitvector, the syscall
// results, and the crash site. Input bytes do not exist in this format by
// construction — there is nothing to redact.
//
// Version 2 additionally stamps the envelope with the plan's provenance:
// the strategy name, the program hash, the cost estimate, and the plan
// fingerprint — so the developer site can refuse a recording that does not
// match the plan or the program it is about to search under. Version 1
// envelopes (no stamp) still load, with the provenance checks skipped.
//
// Version 3 (SaveRef) is the stamped-only reference envelope for
// store-backed deployments: no branch set travels with the report at all,
// only the plan fingerprint, the program hash and the lineage stamp. The
// developer site resolves the exact retained plan generation from its plan
// store by the fingerprint; a report whose stamp matches no retained plan
// is refused by name. LoadRecording reads all three versions.

type recordingJSON struct {
	Version int `json:"version"`
	// Instrumented is the recording plan's branch set; absent in version-3
	// reference envelopes, which carry only the fingerprint stamp.
	Instrumented []int  `json:"instrumented_branches,omitempty"`
	LogSyscalls  bool   `json:"log_syscalls"`
	TraceBits    int64  `json:"trace_bits"`
	TraceData    string `json:"trace_data"` // base64 of packed bits
	// Version 2 provenance stamp.
	Strategy        string                   `json:"strategy,omitempty"`
	ProgHash        string                   `json:"prog_hash,omitempty"`
	Cost            *instrument.CostEstimate `json:"cost,omitempty"`
	PlanFingerprint string                   `json:"plan_fingerprint,omitempty"`
	// Refinement lineage of the plan the recording was taken under
	// (omitted for generation-0 plans, keeping old envelopes byte-stable).
	Generation int    `json:"generation,omitempty"`
	Parent     string `json:"parent,omitempty"`

	SysReads   []int64   `json:"sys_reads,omitempty"`
	SysSelects [][]int   `json:"sys_selects,omitempty"`
	Crash      crashJSON `json:"crash"`
}

type crashJSON struct {
	Kind int    `json:"kind"`
	Unit string `json:"unit"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Code int64  `json:"code"`
}

// recordingVersion is the envelope version Save writes; refVersion is the
// stamped-only reference envelope SaveRef writes.
const (
	recordingVersion = 2
	refVersion       = 3
)

// Save writes the recording to path as a version-2 envelope.
func (r *Recording) Save(path string) error {
	data, err := r.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Encode renders the recording as version-2 envelope bytes — exactly what
// Save writes to disk. This is the wire form a fleet runner ships inline to
// a remote shard worker that shares no filesystem with the parent; the
// recording must carry its plan (version-2 envelopes embed it).
func (r *Recording) Encode() ([]byte, error) {
	if r.Plan == nil {
		return nil, fmt.Errorf("replay: cannot encode version-%d envelope: recording carries no plan — resolve the stamp against a plan store first", recordingVersion)
	}
	fp := r.Fingerprint
	if fp == "" {
		fp = r.Plan.Fingerprint()
	}
	cost := r.Plan.Cost
	enc := recordingJSON{
		Version:         recordingVersion,
		LogSyscalls:     r.Plan.LogSyscalls,
		TraceBits:       r.Trace.Len(),
		TraceData:       base64.StdEncoding.EncodeToString(r.Trace.Bytes()),
		Strategy:        r.Plan.Strategy,
		ProgHash:        r.Plan.ProgHash,
		Cost:            &cost,
		PlanFingerprint: fp,
		Generation:      r.Plan.Generation,
		Parent:          r.Plan.Parent,
		Crash: crashJSON{
			Kind: int(r.Crash.Kind),
			Unit: r.Crash.Pos.Unit,
			Line: r.Crash.Pos.Line,
			Col:  r.Crash.Pos.Col,
			Code: r.Crash.Code,
		},
	}
	for _, id := range r.Plan.IDs() {
		enc.Instrumented = append(enc.Instrumented, int(id))
	}
	if r.SysLog != nil {
		enc.SysReads, enc.SysSelects = r.SysLog.Snapshot()
	}
	data, err := json.MarshalIndent(enc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("replay: encode recording: %w", err)
	}
	return data, nil
}

// SaveRef writes the recording to path as a stamped-only reference
// envelope (version 3): the plan fingerprint, program hash and lineage
// stamp travel with the report, but the branch set does not — the
// developer site resolves the retained plan from its plan store by the
// stamp. The recording must carry a plan or an explicit fingerprint to
// stamp with.
func (r *Recording) SaveRef(path string) error {
	data, err := r.EncodeRef()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// EncodeRef renders the recording as version-3 reference envelope bytes —
// exactly what SaveRef writes to disk and what a user site POSTs to an
// intake service. The bytes are the report's wire identity: the intake
// journal and bucket files store them verbatim, so a stored report is
// byte-identical to what the site shipped.
func (r *Recording) EncodeRef() ([]byte, error) {
	fp := r.Fingerprint
	progHash := r.ProgHash
	generation := 0
	parent := ""
	logSyscalls := r.SysLog != nil
	if r.Plan != nil {
		if fp == "" {
			fp = r.Plan.Fingerprint()
		}
		if progHash == "" {
			progHash = r.Plan.ProgHash
		}
		generation = r.Plan.Generation
		parent = r.Plan.Parent
		logSyscalls = r.Plan.LogSyscalls
	}
	if fp == "" {
		return nil, fmt.Errorf("replay: cannot save reference recording: no plan and no fingerprint stamp")
	}
	enc := recordingJSON{
		Version:         refVersion,
		LogSyscalls:     logSyscalls,
		TraceBits:       r.Trace.Len(),
		TraceData:       base64.StdEncoding.EncodeToString(r.Trace.Bytes()),
		ProgHash:        progHash,
		PlanFingerprint: fp,
		Generation:      generation,
		Parent:          parent,
		Crash: crashJSON{
			Kind: int(r.Crash.Kind),
			Unit: r.Crash.Pos.Unit,
			Line: r.Crash.Pos.Line,
			Col:  r.Crash.Pos.Col,
			Code: r.Crash.Code,
		},
	}
	if r.SysLog != nil {
		enc.SysReads, enc.SysSelects = r.SysLog.Snapshot()
	}
	data, err := json.MarshalIndent(enc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("replay: encode recording: %w", err)
	}
	return data, nil
}

// LoadRecording reads a recording saved by Save or SaveRef (envelope
// version 1, 2 or 3), rejecting structurally corrupt envelopes: negative,
// duplicate or descending branch IDs, and a trace_bits count inconsistent
// with the decoded trace_data length. A version-3 reference envelope loads
// with a nil Plan and the Fingerprint stamp set; it cannot be replayed
// until the retained plan is resolved from a plan store. Callers that know
// the target program should prefer LoadRecordingFor, which additionally
// rejects plans that do not fit the program.
func LoadRecording(path string) (*Recording, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeRecording(data)
}

// DecodeRecording decodes recording envelope bytes (any version
// LoadRecording reads). It is the wire-side entry point: an intake service
// receives envelopes as HTTP bodies, not files, and must validate them with
// exactly the rules the file loader applies.
func DecodeRecording(data []byte) (*Recording, error) {
	var enc recordingJSON
	if err := json.Unmarshal(data, &enc); err != nil {
		return nil, fmt.Errorf("replay: decode recording: %w", err)
	}
	if enc.Version != 1 && enc.Version != recordingVersion && enc.Version != refVersion {
		return nil, fmt.Errorf("replay: unsupported recording version %d (this build reads 1, %d and %d)",
			enc.Version, recordingVersion, refVersion)
	}
	bits, err := base64.StdEncoding.DecodeString(enc.TraceData)
	if err != nil {
		return nil, fmt.Errorf("replay: decode trace: %w", err)
	}
	if enc.TraceBits < 0 {
		return nil, fmt.Errorf("replay: decode recording: negative trace_bits %d", enc.TraceBits)
	}
	if want := (enc.TraceBits + 7) / 8; int64(len(bits)) != want {
		return nil, fmt.Errorf("replay: decode recording: trace_bits %d needs %d bytes, trace_data decodes to %d",
			enc.TraceBits, want, len(bits))
	}
	if enc.Generation < 0 {
		return nil, fmt.Errorf("replay: decode recording: negative generation %d", enc.Generation)
	}
	rec := &Recording{
		Trace:       trace.FromBytes(bits, enc.TraceBits),
		Fingerprint: enc.PlanFingerprint,
		ProgHash:    enc.ProgHash,
		Crash: vm.CrashInfo{
			Kind: vm.CrashKind(enc.Crash.Kind),
			Pos: lang.Pos{
				Unit: enc.Crash.Unit,
				Line: enc.Crash.Line,
				Col:  enc.Crash.Col,
			},
			Code: enc.Crash.Code,
		},
	}
	if enc.Version == refVersion {
		// Reference envelope: the stamp is the only plan identity, so its
		// absence (or a smuggled branch set) is corruption, not data.
		if enc.PlanFingerprint == "" {
			return nil, fmt.Errorf("replay: decode recording: version %d reference envelope has no plan fingerprint stamp", refVersion)
		}
		if len(enc.Instrumented) > 0 {
			return nil, fmt.Errorf("replay: decode recording: version %d reference envelope carries %d instrumented branches (stamp-only envelopes must not embed a plan)",
				refVersion, len(enc.Instrumented))
		}
		if enc.LogSyscalls {
			rec.SysLog = oskernel.SyscallLogFromData(enc.SysReads, enc.SysSelects)
		}
		return rec, nil
	}
	set, err := instrument.DecodeBranchSet(enc.Instrumented)
	if err != nil {
		return nil, fmt.Errorf("replay: decode recording: %w", err)
	}
	plan := &instrument.Plan{
		Strategy:     enc.Strategy,
		Instrumented: set,
		LogSyscalls:  enc.LogSyscalls,
		ProgHash:     enc.ProgHash,
		Generation:   enc.Generation,
		Parent:       enc.Parent,
	}
	if enc.Cost != nil {
		plan.Cost = *enc.Cost
	}
	rec.Plan = plan
	// A stamp must match its plan whatever the version: version 1 never
	// wrote one, so a version-1 envelope that carries one is checked too
	// rather than decoded into a recording that Encode cannot round-trip.
	if enc.PlanFingerprint != "" {
		if got := plan.Fingerprint(); got != enc.PlanFingerprint {
			return nil, fmt.Errorf("replay: decode recording: plan fingerprint mismatch: stamp %s, content hashes to %s",
				enc.PlanFingerprint, got)
		}
	}
	if enc.LogSyscalls {
		rec.SysLog = oskernel.SyscallLogFromData(enc.SysReads, enc.SysSelects)
	}
	return rec, nil
}

// LoadRecordingFor reads a recording and validates it against the program
// it will be replayed on: branch IDs must name existing branch sites and a
// recorded program hash must match. This is the loader the developer site
// should use — a recording from a different build fails here, not as a
// nonsense search result.
func LoadRecordingFor(path string, prog *lang.Program) (*Recording, error) {
	rec, err := LoadRecording(path)
	if err != nil {
		return nil, err
	}
	if err := rec.Validate(prog); err != nil {
		return nil, err
	}
	return rec, nil
}

// DecodeRecordingFor decodes recording envelope bytes and validates them
// against the program they will be replayed on — the wire-side counterpart
// of LoadRecordingFor, used by worker daemons that receive envelopes inline
// over HTTP instead of as staged files.
func DecodeRecordingFor(data []byte, prog *lang.Program) (*Recording, error) {
	rec, err := DecodeRecording(data)
	if err != nil {
		return nil, err
	}
	if err := rec.Validate(prog); err != nil {
		return nil, err
	}
	return rec, nil
}
