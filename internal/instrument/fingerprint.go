package instrument

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"pathlog/internal/lang"
)

// Fingerprints make plans durable and safe to ship between sites: a plan's
// fingerprint covers the program identity, the instrumented-branch set and
// the syscall-logging flag — everything the replay engine needs to agree on
// to interpret a bitvector. Recordings are stamped with the fingerprint of
// the plan they were taken under, so a replay site can refuse a
// plan/recording/program mismatch instead of silently searching under the
// wrong plan.

// Fingerprint returns the plan's durable identity: a hash of the program
// hash, the sorted instrumented branch-ID set, and the syscall-logging
// flag. Two plans with the same fingerprint are interchangeable at record
// and replay time regardless of which strategy produced them.
//
// The fingerprint is computed once, on the plan's first use, and memoised
// (see Plan): every recording is stamped with it, so an instrumented run
// must not pay for a hash. Fingerprint is safe for concurrent use.
func (p *Plan) Fingerprint() string { return p.compile().fingerprint }

// computeFingerprint hashes the plan's identity afresh (see Fingerprint).
func (p *Plan) computeFingerprint() string {
	h := sha256.New()
	io.WriteString(h, "pathlog-plan-v1\n")
	io.WriteString(h, p.ProgHash)
	io.WriteString(h, "\n")
	for _, id := range p.IDs() {
		fmt.Fprintf(h, "%d\n", id)
	}
	fmt.Fprintf(h, "syscalls=%v\n", p.LogSyscalls)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// ValidateForProgram checks that the plan can be applied to prog: every
// instrumented branch ID must name a branch site of the program, and a
// recorded program hash must match the program's.
func (p *Plan) ValidateForProgram(prog *lang.Program) error {
	n := lang.BranchID(len(prog.Branches))
	for id, v := range p.Instrumented {
		if !v {
			continue
		}
		if id < 0 || id >= n {
			return fmt.Errorf("instrument: plan instruments branch b%d, but the program has only %d branch locations", id, n)
		}
	}
	if p.ProgHash != "" {
		if got := prog.Hash(); got != p.ProgHash {
			return fmt.Errorf("instrument: plan was built for program %s, not %s (program changed since the plan was made)",
				p.ProgHash, got)
		}
	}
	return nil
}
