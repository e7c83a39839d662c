// Package solver implements the constraint solver used to turn path
// conditions into concrete program inputs.
//
// The paper uses an off-the-shelf bitvector solver; this reproduction ships a
// self-contained CSP solver tuned to the constraint fragment that compiled
// MiniC programs generate: conjunctions of (in)equalities over linear
// combinations of input bytes, plus a residue of non-linear atoms (division,
// bit operations) that are checked by evaluation during search.
//
// The solve pipeline is:
//
//  1. normalize every constraint into a linear atom when possible (normalized
//     forms are cached per expression, since replay re-solves path prefixes);
//  2. return the seed when it already satisfies every constraint;
//  3. unify the input variables that linear atoms assert equal (x - y == 0)
//     and prove the conjunction unsat when some atom asserts !=, < or >
//     between two sides that are identical modulo that unification — the
//     shape of diff's "equal lines hash differently" negations, which no
//     amount of search can refute within budget (unify.go);
//  4. tighten per-variable interval domains by bounds propagation to a fixed
//     point;
//  5. run a deterministic backtracking search over the remaining variables,
//     seeding value choice from the previous concrete run so that solutions
//     stay close to observed executions (this mirrors how concolic engines
//     reuse the current input);
//  6. verify the candidate assignment by evaluating the original constraints.
//
// A call that returns no assignment either proved the conjunction unsat (by
// unification, by propagation, or by a search that enumerated every
// candidate) or gave up (the node or work budget ran out, a domain was wider
// than the per-variable value budget, bounds reasoning could have overflowed,
// or the final verification rejected the search's candidate). Stats counts
// the two apart: only Unsat is a proof.
//
// Internally the search works on dense slot-indexed state (variable IDs are
// mapped to slots once per Solve call) so the per-node hot paths — bounds
// propagation, decided-atom checks and candidate enumeration — run on slices
// with no map traffic and no per-node allocation. The search is
// incremental: a node costs the atoms of the variable it assigns (the atoms
// that variable decides, and the propagation its value causes), not the
// whole path condition. Stats.Work is nevertheless charged as a node that
// rescans every atom and copies every domain would charge it, so Work, and
// the MaxWork budget that bounds it, are a function of the problem and not
// of the implementation.
package solver

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"sort"

	"pathlog/internal/freelist"
	"pathlog/internal/sym"
)

// Options tune solver effort. The zero value selects sane defaults.
type Options struct {
	// MaxNodes bounds the number of search-tree nodes visited per Solve
	// call. 0 means DefaultMaxNodes.
	MaxNodes int
	// MaxValuesPerVar bounds how many candidate values are tried for one
	// variable at one node. 0 means DefaultMaxValuesPerVar.
	MaxValuesPerVar int
	// MaxWork bounds the total evaluation effort (expression nodes touched)
	// per Solve call, so pathological non-linear conjunctions (diff's
	// hash-chain constraints) cannot stall a replay run. 0 means
	// DefaultMaxWork.
	MaxWork int64
}

// Default effort bounds.
const (
	DefaultMaxNodes        = 200000
	DefaultMaxValuesPerVar = 1024
	DefaultMaxWork         = 3_000_000
)

// normTabBits caps the per-Solver normalization cache: a direct-mapped
// table of up to 2^normTabBits slots. Pending sets spawned by one replay run
// share their prefix expressions, so consecutive Solve calls hit the same
// slots; across runs expressions are rebuilt and the old entries simply get
// evicted. A table of fixed slots keeps the cache allocation-free in steady
// state (it grows only in size classes, see minTabBits) — a map here churns through fill-and-reset cycles that dominate the
// solver's allocation profile.
const normTabBits = 13

// structTabBits caps the second-level, structurally-keyed normalization
// cache, and hashTabBits the per-node hash memo that feeds it. Across runs of
// one search every expression is rebuilt node-for-node, so the pointer-keyed
// first level misses on all of them; the structural level recognizes the
// rebuilt expressions and reuses their normal forms, which is what keeps
// normalization (and its slab churn) a first-run-only cost.
const (
	structTabBits = 13
	hashTabBits   = 14
)

// The cache tables are sized to the problem: a new Solver starts at
// 2^minTabBits slots per level (the hash memo twice that), and a Solve call
// bringing more than a table's share of constraints grows every level to the
// smallest power of two with slotsPerConstraint slots per constraint, up to
// the caps above. Most searches solve path conditions of a few dozen to a
// few hundred constraints, so full-size tables (about 0.9 MB of
// pointer-holding slots) would mostly be allocated and zeroed for nothing.
// A grow drops the cached entries, as an eviction would.
const (
	minTabBits         = 8
	slotsPerConstraint = 8
)

// Stats accumulates counters across Solve calls; the experiment harness
// reports them alongside replay times. Calls == Sat + Unsat + GaveUp.
//
// GaveUp and Work are omitted from JSON when zero, so search profiles filed
// before they existed keep their bytes on a round trip.
type Stats struct {
	Calls     int   // number of Solve invocations
	Sat       int   // how many returned a solution
	Unsat     int   // how many proved the conjunction unsatisfiable
	GaveUp    int   `json:",omitempty"` // how many failed without a proof
	Nodes     int64 // total search nodes visited
	Work      int64 `json:",omitempty"` // total evaluation effort charged
	Atoms     int64 // total atoms normalized
	Fallbacks int64 // atoms that could not be linearized
}

// Add folds another Stats into s — the one aggregation point for callers
// combining per-worker or per-search counters.
func (s *Stats) Add(o Stats) {
	s.Calls += o.Calls
	s.Sat += o.Sat
	s.Unsat += o.Unsat
	s.GaveUp += o.GaveUp
	s.Nodes += o.Nodes
	s.Work += o.Work
	s.Atoms += o.Atoms
	s.Fallbacks += o.Fallbacks
}

// Solver solves conjunctions of sym.Constraint over bounded integer domains.
// A Solver is not safe for concurrent use.
type Solver struct {
	opts    Options
	stats   Stats
	norm    []normSlot   // direct-mapped normalization cache, pointer-keyed
	snorm   []normSlot   // second level, structure-keyed
	hashTab []hashSlot   // per-node structural-hash memo
	tabBits int          // the tables' size class (see sizeTables)
	varBuf  []int        // scratch for collecting variable IDs in normalize
	neBuf   []*normEntry // scratch for the per-call normal forms
	uni     unifier      // equality-unification proof step, reused per call
	st      searchState  // reused across Solve calls to keep allocation flat

	// Index shifts: 64 minus log2 of each table's length.
	normShift, snormShift, hashShift uint

	// normDirty and hashDirty list the norm and hashTab slots written since
	// the tables were last clean, so Put clears what the search wrote
	// instead of the whole tables.
	normDirty, hashDirty []int32

	// Slab storage for normal forms. The replay search normalizes one fresh
	// expression per executed symbolic branch (each run rebuilds its path
	// condition), so entries and their vars slices are bump-allocated in
	// chunks. A chunk is dropped on growth and becomes collectible once the
	// cache has evicted the last entry pointing into it.
	entrySlab []normEntry
	intSlab   []int
}

// withDefaults resolves zero option fields to their defaults.
func (o Options) withDefaults() Options {
	if o.MaxNodes <= 0 {
		o.MaxNodes = DefaultMaxNodes
	}
	if o.MaxValuesPerVar <= 0 {
		o.MaxValuesPerVar = DefaultMaxValuesPerVar
	}
	if o.MaxWork <= 0 {
		o.MaxWork = DefaultMaxWork
	}
	return o
}

// New returns a Solver with the given options and minimum-size cache
// tables.
func New(opts Options) *Solver {
	s := &Solver{opts: opts.withDefaults()}
	s.sizeTables(minTabBits)
	s.st.solver = s
	s.st.slotOf = make(map[int]int32)
	return s
}

// sizeTables (re)allocates the cache tables at 2^bits slots per level,
// dropping their contents.
func (s *Solver) sizeTables(bits int) {
	nb, sb, hb := min(bits, normTabBits), min(bits, structTabBits), min(bits+1, hashTabBits)
	s.tabBits = bits
	s.norm = make([]normSlot, 1<<nb)
	s.snorm = make([]normSlot, 1<<sb)
	s.hashTab = make([]hashSlot, 1<<hb)
	s.normDirty, s.hashDirty = s.normDirty[:0], s.hashDirty[:0]
	s.normShift, s.snormShift, s.hashShift = uint(64-nb), uint(64-sb), uint(64-hb)
}

// fit grows the cache tables before a call of n constraints (see
// minTabBits).
func (s *Solver) fit(n int) {
	bits := s.tabBits
	for bits < normTabBits && 1<<bits < n*slotsPerConstraint {
		bits++
	}
	if bits != s.tabBits {
		s.sizeTables(bits)
	}
}

// free holds idle Solvers between searches, so a search nearly always
// starts from a warm Solver with right-sized tables instead of allocating
// and zeroing new ones. Of the cache levels only the structure-keyed one
// carries over: normal forms depend only on expression structure, so the
// next search's rebuilt expressions can hit it.
var free freelist.List[*Solver]

// Get returns a Solver for the given options, taking the most recently
// returned idle one whose options match (after default resolution).
// Recycled Solvers have their stats cleared; the structure-keyed cache
// carries over by design.
func Get(opts Options) *Solver {
	opts = opts.withDefaults()
	if s, ok := free.Get(func(s *Solver) bool { return s.opts == opts }); ok {
		s.ResetStats()
		return s
	}
	return New(opts)
}

// Put returns a Solver to the free list. The caller must not use it
// afterwards. Put clears the slots the search wrote in the pointer-keyed
// levels (the first normalization level and the hash memo): no later
// search can hit them, since every search builds its expressions afresh,
// and they would only keep this search's garbage reachable. Clearing only
// the written slots keeps a two-run search from paying for tables an
// earlier, larger problem grew. A full list drops its oldest Solver.
func Put(s *Solver) {
	for _, i := range s.normDirty {
		s.norm[i] = normSlot{}
	}
	for _, i := range s.hashDirty {
		s.hashTab[i] = hashSlot{}
	}
	s.normDirty, s.hashDirty = s.normDirty[:0], s.hashDirty[:0]
	free.Put(s)
}

// Stats returns a copy of the accumulated counters.
func (s *Solver) Stats() Stats { return s.stats }

// ResetStats clears the accumulated counters.
func (s *Solver) ResetStats() { s.stats = Stats{} }

// Domain describes the inclusive value range of one input variable.
type Domain struct {
	Lo, Hi int64
}

// VarDomain binds one variable ID to its domain.
type VarDomain struct {
	ID     int
	Lo, Hi int64
}

// Problem is one satisfiability query: a conjunction of constraints, the
// domains of the variables they mention, and a seed assignment (typically the
// concrete input of the run that produced the constraints). Domains must not
// repeat an ID; callers conventionally keep it ID-sorted (a slice rather
// than a map because solving is the replay search's inner loop).
type Problem struct {
	Constraints []sym.Constraint
	Domains     []VarDomain
	Seed        sym.MapAssignment
}

// Solve searches for an assignment satisfying every constraint. Variables not
// mentioned by any constraint keep their seed value. The returned assignment
// is complete for all variables in p.Domains. ok is false when the problem is
// unsatisfiable or the search gave up; Stats tells the two apart.
func (s *Solver) Solve(p Problem) (asn sym.MapAssignment, ok bool) {
	s.stats.Calls++
	s.fit(len(p.Constraints))

	// Fast path: the seed may already satisfy the conjunction (frequent when
	// only one negated constraint was appended and it is loose). Constraints
	// are checked through their cached normal forms — equivalent to
	// evaluating the original expressions, several times cheaper.
	seedAsn := make(sym.MapAssignment, len(p.Domains))
	for _, d := range p.Domains {
		v := p.Seed[d.ID]
		if v < d.Lo {
			v = d.Lo
		}
		if v > d.Hi {
			v = d.Hi
		}
		seedAsn[d.ID] = v
	}
	// Each constraint's normal form is looked up once per call and reused by
	// the seed check, the atom build and the final verification.
	nes := s.neBuf[:0]
	for _, c := range p.Constraints {
		nes = append(nes, s.normalized(c))
	}
	s.neBuf = nes

	seedHolds := true
	for i, c := range p.Constraints {
		if !evalNorm(nes[i], c, seedAsn) {
			seedHolds = false
			break
		}
	}
	if seedHolds {
		s.stats.Sat++
		return seedAsn, true
	}

	if work, proved := s.uni.provesUnsat(p.Constraints, nes); proved {
		s.stats.Unsat++
		s.stats.Work += work
		return nil, false
	}

	st := &s.st
	st.reset()
	for _, d := range p.Domains {
		st.addSlot(d.ID, interval{lo: d.Lo, hi: d.Hi}, seedAsn[d.ID], true)
	}

	// Build the atoms.
	for i, c := range p.Constraints {
		ne := nes[i]
		s.stats.Atoms++
		if !ne.linear {
			s.stats.Fallbacks++
		}
		st.addAtom(c, ne)
	}

	if !st.propagateAll() {
		return s.fail(st.exact(p.Domains))
	}

	// Order variables: most-constrained (smallest domain) first, ties by ID
	// for determinism.
	vars := st.order[:0]
	for slot := range st.doms {
		if len(st.varAtoms[slot]) > 0 {
			vars = append(vars, int32(slot))
		}
	}
	st.order = vars
	slices.SortFunc(vars, func(a, b int32) int {
		if c := cmp.Compare(st.doms[a].width(), st.doms[b].width()); c != 0 {
			return c
		}
		return cmp.Compare(st.idOf[a], st.idOf[b])
	})

	if len(st.gens) < len(vars) {
		st.gens = make([]candGen, len(vars))
	}
	if !st.search(vars, 0) {
		return s.fail(!st.overBudget() && !st.truncated && st.exact(p.Domains))
	}

	// Assemble the full assignment: searched vars from the solution, the
	// rest from the seed.
	out := seedAsn
	for _, slot := range vars {
		out[st.idOf[slot]] = st.asnVal[slot]
	}
	for i, c := range p.Constraints {
		if !evalNorm(nes[i], c, out) {
			// Paranoia: search produced a candidate the evaluator rejects.
			// Return no input rather than a wrong one — but this is no proof.
			return s.fail(false)
		}
	}
	s.stats.Sat++
	s.stats.Work += st.work
	return out, true
}

// fail ends a call that found no assignment, counting it as a proof of
// unsatisfiability or as a give-up.
func (s *Solver) fail(proved bool) (sym.MapAssignment, bool) {
	s.stats.Work += s.st.work
	if proved {
		s.stats.Unsat++
	} else {
		s.stats.GaveUp++
	}
	return nil, false
}

// evalNorm decides one constraint under an assignment via its normal form.
// Linearized constraints evaluate their two sides directly (exact under
// wraparound: linearization only rewrites ring operations); fallbacks walk
// the original expression.
func evalNorm(ne *normEntry, c sym.Constraint, asn sym.Assignment) bool {
	if ne.hasEval {
		l := ne.lc
		for _, t := range ne.lform {
			l += t.coeff * asn.Value(t.v)
		}
		r := ne.rc
		for _, t := range ne.rform {
			r += t.coeff * asn.Value(t.v)
		}
		return holdsRel(ne.r, l, r)
	}
	return c.Holds(asn)
}

// --- atoms -----------------------------------------------------------------

// rel is the relation of a linear atom: sum(terms) + c REL 0.
type rel int

const (
	relEQ rel = iota
	relNE
	relLT
	relLE
	relGT
	relGE
)

// String implements fmt.Stringer.
func (r rel) String() string {
	return [...]string{"==", "!=", "<", "<=", ">", ">="}[r]
}

type term struct {
	v     int
	coeff int64
}

// normSlot is one direct-mapped cache line: expression nodes are immutable
// and shared, so node identity plus the asserted truth identifies a normal
// form exactly.
type normSlot struct {
	e     sym.Expr
	truth bool
	ne    *normEntry
}

// normEntry is the variable-ID-indexed normal form of one constraint, cached
// across Solve calls. When linear is true, terms (the combined lhs-rhs form)
// feeds bounds propagation. When hasEval is true the constraint can be
// decided by evaluating the two linear sides directly — exact even under
// wraparound, because linearization only rewrites ring operations (+, -,
// neg, mul-by-const), never the comparison itself.
type normEntry struct {
	linear  bool
	hasEval bool
	terms   []term // combined lhs-rhs, zero coefficients dropped, sorted by v
	c       int64
	r       rel    // relation with the constraint's truth folded in
	lform   []term // lhs linear form
	lc      int64
	rform   []term // rhs linear form
	rc      int64
	vars    []int // all variable IDs of the expression, sorted
	size    int32 // sym.Size of the original expression (work accounting)
}

// normalized returns the cached normal form of c, computing it on a miss.
// The first level hashes the expression's node identity (Fibonacci mixing of
// the pointer) — a hit is free and covers the re-solved path prefixes within
// one run. The second level hashes the expression's structure, so the
// node-for-node rebuilt expressions of later runs of the same search reuse
// the first run's normal forms instead of re-linearizing (a normEntry is a
// pure function of structure and truth, so sharing one across
// pointer-distinct but structurally equal expressions is exact). In both
// tables the truth folds into the low bit so the two polarities of one
// expression coexist; a colliding entry is simply evicted.
func (s *Solver) normalized(c sym.Constraint) *normEntry {
	h := uint64(reflect.ValueOf(c.E).Pointer()) * fibMix
	idx := (h >> s.normShift) &^ 1
	if c.Truth {
		idx |= 1
	}
	slot := &s.norm[idx]
	if slot.e == c.E && slot.truth == c.Truth {
		return slot.ne
	}
	if slot.e == nil {
		s.normDirty = append(s.normDirty, int32(idx))
	}
	sidx := (s.structHash(c.E) >> s.snormShift) &^ 1
	if c.Truth {
		sidx |= 1
	}
	sslot := &s.snorm[sidx]
	if sslot.ne != nil && sslot.truth == c.Truth && structEq(sslot.e, c.E) {
		// Re-key the slot to the newest expression: its subtrees are shared
		// with the rest of this run's constraints, so later structEq walks
		// can short-circuit on pointer equality.
		sslot.e = c.E
		slot.e, slot.truth, slot.ne = c.E, c.Truth, sslot.ne
		return sslot.ne
	}
	ne := s.normalize(c)
	slot.e, slot.truth, slot.ne = c.E, c.Truth, ne
	sslot.e, sslot.truth, sslot.ne = c.E, c.Truth, ne
	return ne
}

const fibMix = 0x9E3779B97F4A7C15

// hashSlot is one line of the structural-hash memo: expression nodes are
// immutable, so a node's structural hash never changes once computed.
type hashSlot struct {
	e sym.Expr
	h uint64
}

// structHash returns a hash of the expression's structure (operators, shape,
// constants, input IDs) — equal for the node-for-node rebuilt expressions of
// different runs. Interior nodes memoize through a pointer-keyed table:
// constraints within one run share their subtrees, so each node is walked
// once per run, not once per constraint mentioning it.
func (s *Solver) structHash(e sym.Expr) uint64 {
	switch x := e.(type) {
	case *sym.Const:
		return hashConst(x)
	case *sym.Input:
		return hashInput(x.ID)
	case *sym.Un:
		hs := s.memoSlot(e)
		if hs.e == e {
			return hs.h
		}
		h := hashUn(x.Op, s.structHash(x.X))
		hs.e, hs.h = e, h
		return h
	case *sym.Bin:
		hs := s.memoSlot(e)
		if hs.e == e {
			return hs.h
		}
		h := hashBin(x.Op, s.structHash(x.L), s.structHash(x.R))
		hs.e, hs.h = e, h
		return h
	}
	return fibMix
}

// memoSlot returns the memo slot of node e, listing it in hashDirty when it
// is still empty: the caller fills a slot that misses.
func (s *Solver) memoSlot(e sym.Expr) *hashSlot {
	i := uint64(reflect.ValueOf(e).Pointer()) * fibMix >> s.hashShift
	hs := &s.hashTab[i]
	if hs.e == nil {
		s.hashDirty = append(s.hashDirty, int32(i))
	}
	return hs
}

// The structural hash's node mixers, shared with the unifier's
// renaming-aware variant.
func hashConst(c *sym.Const) uint64         { return (uint64(c.V) ^ 0xC0) * fibMix }
func hashInput(id int) uint64               { return (uint64(id) ^ 0x1A) * fibMix }
func hashUn(op sym.Op, x uint64) uint64     { return (x + uint64(op) + 1) * fibMix }
func hashBin(op sym.Op, l, r uint64) uint64 { return (l*3 + r + uint64(op)) * fibMix }

// structEq reports whether two expressions are structurally identical.
// Shared subtrees short-circuit on pointer equality.
func structEq(a, b sym.Expr) bool {
	if a == b {
		return true
	}
	switch x := a.(type) {
	case *sym.Const:
		y, ok := b.(*sym.Const)
		return ok && x.V == y.V
	case *sym.Input:
		y, ok := b.(*sym.Input)
		return ok && x.ID == y.ID
	case *sym.Un:
		y, ok := b.(*sym.Un)
		return ok && x.Op == y.Op && structEq(x.X, y.X)
	case *sym.Bin:
		y, ok := b.(*sym.Bin)
		return ok && x.Op == y.Op && structEq(x.L, y.L) && structEq(x.R, y.R)
	}
	return false
}

// newEntry bump-allocates one normEntry from the slab. Chunks start small
// and double up to 512 entries, so a Solver that normalizes a few dozen
// constraints does not allocate room for hundreds.
func (s *Solver) newEntry() *normEntry {
	if len(s.entrySlab) == cap(s.entrySlab) {
		s.entrySlab = make([]normEntry, 0, min(max(2*cap(s.entrySlab), 64), 512))
	}
	s.entrySlab = s.entrySlab[:len(s.entrySlab)+1]
	return &s.entrySlab[len(s.entrySlab)-1]
}

// ints bump-allocates an n-int slice from the slab.
func (s *Solver) ints(n int) []int {
	if cap(s.intSlab)-len(s.intSlab) < n {
		size := max(min(max(2*cap(s.intSlab), 512), 4096), n)
		s.intSlab = make([]int, 0, size)
	}
	l := len(s.intSlab)
	s.intSlab = s.intSlab[:l+n]
	return s.intSlab[l : l+n : l+n]
}

// normalize converts a constraint to its normal form, linearizing when
// possible.
func (s *Solver) normalize(c sym.Constraint) *normEntry {
	buf := sym.AppendVarIDs(c.E, s.varBuf[:0])
	sort.Ints(buf)
	u := 0
	for i, v := range buf {
		if i == 0 || v != buf[i-1] {
			buf[u] = v
			u++
		}
	}
	s.varBuf = buf
	vars := s.ints(u)
	copy(vars, buf[:u])
	ne := s.newEntry()
	ne.vars, ne.size = vars, int32(sym.Size(c.E))

	lhs, rhs, r, cmp := splitComparison(c.E)
	if cmp {
		lt, lok := linearize(lhs)
		rt, rok := linearize(rhs)
		if lok && rok {
			if !c.Truth {
				r = negateRel(r)
			}
			diff := lt.combine(rt, true)
			ne.hasEval = true
			ne.r = r
			ne.lform, ne.lc = lt.terms, lt.c
			ne.rform, ne.rc = rt.terms, rt.c
			ne.terms, ne.c = diff.terms, diff.c
			// A combined form with no terms is constant after linearization;
			// it cannot drive propagation, so it stays a fallback (though
			// still decided by direct evaluation).
			ne.linear = len(ne.terms) > 0
			return ne
		}
	}
	// Truthness of a non-comparison expression: e != 0 (Truth) or e == 0.
	if lt, lok := linearize(c.E); lok {
		r := relNE
		if !c.Truth {
			r = relEQ
		}
		ne.hasEval = true
		ne.r = r
		ne.lform, ne.lc = lt.terms, lt.c
		ne.terms, ne.c = lt.terms, lt.c
		ne.linear = len(ne.terms) > 0
		return ne
	}
	return ne
}

// splitComparison decomposes a top-level comparison into lhs REL rhs.
func splitComparison(e sym.Expr) (lhs, rhs sym.Expr, r rel, ok bool) {
	switch x := e.(type) {
	case *sym.Bin:
		switch x.Op {
		case sym.OpEq:
			return x.L, x.R, relEQ, true
		case sym.OpNe:
			return x.L, x.R, relNE, true
		case sym.OpLt:
			return x.L, x.R, relLT, true
		case sym.OpLe:
			return x.L, x.R, relLE, true
		case sym.OpGt:
			return x.L, x.R, relGT, true
		case sym.OpGe:
			return x.L, x.R, relGE, true
		}
	case *sym.Un:
		switch x.Op {
		case sym.OpNot:
			// !(e): swap truth by comparing e == 0.
			return x.X, sym.Zero, relEQ, true
		case sym.OpBool:
			return x.X, sym.Zero, relNE, true
		}
	}
	return nil, nil, 0, false
}

func negateRel(r rel) rel {
	switch r {
	case relEQ:
		return relNE
	case relNE:
		return relEQ
	case relLT:
		return relGE
	case relLE:
		return relGT
	case relGT:
		return relLE
	case relGE:
		return relLT
	}
	panic(fmt.Sprintf("solver: bad rel %d", r))
}

// linTerm is a linear combination of variables plus a constant. Terms are
// sorted by variable ID and carry no zero coefficients; each linTerm owns
// its slice, so in-place negation and scaling are safe.
type linTerm struct {
	terms []term
	c     int64
}

// combine returns t + o (or t - o when sub), merging the sorted term lists
// and dropping coefficients that cancel.
func (t linTerm) combine(o linTerm, sub bool) linTerm {
	out := linTerm{terms: make([]term, 0, len(t.terms)+len(o.terms))}
	if sub {
		out.c = t.c - o.c
	} else {
		out.c = t.c + o.c
	}
	i, j := 0, 0
	for i < len(t.terms) && j < len(o.terms) {
		a, b := t.terms[i], o.terms[j]
		switch {
		case a.v < b.v:
			out.terms = append(out.terms, a)
			i++
		case a.v > b.v:
			if sub {
				b.coeff = -b.coeff
			}
			out.terms = append(out.terms, b)
			j++
		default:
			co := a.coeff + b.coeff
			if sub {
				co = a.coeff - b.coeff
			}
			if co != 0 {
				out.terms = append(out.terms, term{v: a.v, coeff: co})
			}
			i++
			j++
		}
	}
	out.terms = append(out.terms, t.terms[i:]...)
	for ; j < len(o.terms); j++ {
		b := o.terms[j]
		if sub {
			b.coeff = -b.coeff
		}
		out.terms = append(out.terms, b)
	}
	return out
}

// linearize attempts to express e as a linear combination of inputs.
func linearize(e sym.Expr) (linTerm, bool) {
	switch x := e.(type) {
	case *sym.Const:
		return linTerm{c: x.V}, true
	case *sym.Input:
		return linTerm{terms: []term{{v: x.ID, coeff: 1}}}, true
	case *sym.Un:
		if x.Op == sym.OpNeg {
			if t, ok := linearize(x.X); ok {
				for i := range t.terms {
					t.terms[i].coeff = -t.terms[i].coeff
				}
				t.c = -t.c
				return t, true
			}
		}
		return linTerm{}, false
	case *sym.Bin:
		switch x.Op {
		case sym.OpAdd, sym.OpSub:
			lt, lok := linearize(x.L)
			rt, rok := linearize(x.R)
			if !lok || !rok {
				return linTerm{}, false
			}
			return lt.combine(rt, x.Op == sym.OpSub), true
		case sym.OpMul:
			// Linear only when one side is constant.
			if cv, ok := sym.IsConst(x.L); ok {
				if t, tok := linearize(x.R); tok {
					return t.scale(cv), true
				}
			}
			if cv, ok := sym.IsConst(x.R); ok {
				if t, tok := linearize(x.L); tok {
					return t.scale(cv), true
				}
			}
		}
	}
	return linTerm{}, false
}

// scale multiplies the form by k in place (the receiver owns its terms).
// Scaling by zero cancels every term; constant folding upstream makes that
// unreachable in practice, but the filter keeps the no-zero invariant.
func (t linTerm) scale(k int64) linTerm {
	out := linTerm{terms: t.terms[:0], c: t.c * k}
	for _, u := range t.terms {
		if co := u.coeff * k; co != 0 {
			out.terms = append(out.terms, term{v: u.v, coeff: co})
		}
	}
	return out
}
