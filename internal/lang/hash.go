package lang

import (
	"crypto/sha256"
	"fmt"
	"io"
)

// Hash returns the program's deployment identity: a hash over its unit
// names and regions, its function signatures, and every branch site (ID,
// kind, position, enclosing function, region). Branch IDs are assigned in
// source order during linking, so any edit that moves, adds or removes a
// branch changes the hash — exactly the edits that would invalidate a
// retained plan.
//
// A linked Program is immutable, so the hash is computed once, on first
// use, and every later call returns the memoised value. Plans, recordings,
// shard requests and store keys all carry it, and a replay checks it before
// every search. Hash is safe for concurrent use.
func (p *Program) Hash() string {
	p.hashOnce.Do(func() { p.hash = p.computeHash() })
	return p.hash
}

// Compiled returns the program's compiled form: build's result on the
// first call, memoised with its error, and the same value on every later
// call. A linked Program is immutable, so its compiled form is too; it is
// reachable for exactly as long as the program is. Compiled is safe for
// concurrent use: concurrent first callers wait for one build. The
// bytecode engine (ir.Compile) is the only builder.
func (p *Program) Compiled(build func(*Program) (any, error)) (any, error) {
	p.compileOnce.Do(func() { p.compiled, p.compileErr = build(p) })
	return p.compiled, p.compileErr
}

// computeHash hashes the program's identity afresh (see Hash).
func (p *Program) computeHash() string {
	h := sha256.New()
	io.WriteString(h, "pathlog-program-v1\n")
	for _, u := range p.Units {
		fmt.Fprintf(h, "unit %s region=%d\n", u.Name, u.Region)
	}
	for _, f := range p.FuncList {
		fmt.Fprintf(h, "func %s/%d region=%d\n", f.Name, len(f.Params), f.Region)
	}
	fmt.Fprintf(h, "branches %d\n", len(p.Branches))
	for _, b := range p.Branches {
		fmt.Fprintf(h, "b%d %d %s %s:%d:%d region=%d\n",
			b.ID, b.Kind, b.Func, b.Pos.Unit, b.Pos.Line, b.Pos.Col, b.Region)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}
