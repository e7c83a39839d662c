package solver

import (
	"math/bits"

	"pathlog/internal/sym"
)

// interval is a mutable inclusive range used during propagation and search.
type interval struct {
	lo, hi int64
}

func (iv *interval) width() int64 {
	if iv.hi < iv.lo {
		return 0
	}
	// Guard against overflow for huge ranges.
	w := iv.hi - iv.lo + 1
	if w <= 0 {
		return 1 << 62
	}
	return w
}

func (iv *interval) empty() bool { return iv.hi < iv.lo }

func (iv *interval) contains(v int64) bool { return v >= iv.lo && v <= iv.hi }

// dterm is one linear term over a dense variable slot.
type dterm struct {
	slot  int32
	coeff int64
}

// atom is one constraint instantiated for the current Solve call: the cached
// normal form with its variable IDs translated to dense slots, plus the
// search bookkeeping counter of not-yet-assigned variables.
type atom struct {
	ne         *normEntry
	orig       sym.Constraint
	terms      []dterm // combined lhs-rhs form, for bounds propagation
	lform      []dterm
	rform      []dterm
	vars       []int32
	unassigned int32
}

// searchState carries the solver's mutable state for one Solve call. It is
// embedded in the Solver and reused across calls, so the slices below keep
// their capacity and the per-call and per-node allocation count stays flat.
// All variable-indexed state is dense: variable IDs are interned into slots
// (slotOf/idOf) and every hot structure is a slice indexed by slot.
//
// The search is incremental: a node touches the atoms of the slot it
// assigns, the atoms that propagation re-dirties and the domains it
// narrows, never every atom or every domain. Work is nevertheless charged
// as a search that rescans every atom and copies every domain at each node
// would charge it, so budgets and Stats.Work are a function of the problem,
// not of this bookkeeping.
type searchState struct {
	solver *Solver

	slotOf map[int]int32 // variable ID -> slot
	idOf   []int         // slot -> variable ID

	doms      []interval // current domain per slot
	seedVal   []int64    // clamped seed value per slot (0 when no seed)
	seedHas   []bool     // whether the slot's variable appeared in p.Domains
	asnVal    []int64    // search assignment per slot
	asnHas    []bool     // whether the slot is currently assigned
	varAtoms  [][]int32  // atom indices mentioning each slot, ascending
	termAtoms [][]int32  // atom indices with a propagation term on each slot
	dirty     []uint64   // bitset over atoms: some term domain changed since its last run

	atoms []atom

	// zeroVar lists the atoms that mention no variable, ascending: they are
	// decided from the first node on. The first zeroOK of them are verified
	// true; checkDecided verifies them in order, so they form a prefix.
	zeroVar []int32
	zeroOK  int
	// varsBefore[i] is the summed len(vars) of atoms[:i], and sizeDecided
	// the summed ne.size of the atoms whose variables are all assigned: the
	// two sums a decided-atom check over every atom charges.
	varsBefore  []int64
	sizeDecided int64

	order []int32      // searched slots, most-constrained first
	trail []trailEntry // domains as they were before each narrowing, LIFO
	gens  []candGen    // per-depth candidate generators

	nodes int
	work  int64
	// truncated records that some node ran out of candidates before it
	// covered its domain, so an exhausted search is no proof of unsat.
	// Candidates are clipped to MaxValuesPerVar, and the sweep around a seed
	// that lies outside the (propagated) domain reaches only part of it.
	truncated bool
}

// trailEntry is one undo record: the slot's domain before a narrowing.
type trailEntry struct {
	slot int32
	old  interval
}

// reset prepares the state for a new Solve call, retaining slice capacity.
func (st *searchState) reset() {
	clear(st.slotOf)
	st.idOf = st.idOf[:0]
	st.doms = st.doms[:0]
	st.seedVal = st.seedVal[:0]
	st.seedHas = st.seedHas[:0]
	st.asnVal = st.asnVal[:0]
	st.asnHas = st.asnHas[:0]
	st.atoms = st.atoms[:0]
	st.dirty = st.dirty[:0]
	st.zeroVar = st.zeroVar[:0]
	st.zeroOK = 0
	st.varsBefore = append(st.varsBefore[:0], 0)
	st.sizeDecided = 0
	st.trail = st.trail[:0]
	st.nodes = 0
	st.work = 0
	st.truncated = false
}

// addSlot interns a variable ID with its domain and seed value.
func (st *searchState) addSlot(id int, iv interval, seed int64, hasSeed bool) int32 {
	s := int32(len(st.doms))
	st.slotOf[id] = s
	st.idOf = append(st.idOf, id)
	st.doms = append(st.doms, iv)
	st.seedVal = append(st.seedVal, seed)
	st.seedHas = append(st.seedHas, hasSeed)
	st.asnVal = append(st.asnVal, 0)
	st.asnHas = append(st.asnHas, false)
	if int(s) < len(st.varAtoms) {
		st.varAtoms[s] = st.varAtoms[s][:0]
	} else {
		st.varAtoms = append(st.varAtoms, nil)
	}
	if int(s) < len(st.termAtoms) {
		st.termAtoms[s] = st.termAtoms[s][:0]
	} else {
		st.termAtoms = append(st.termAtoms, nil)
	}
	return s
}

// slot returns the slot of a variable ID, interning it with the extended
// safety domain when the problem declared none.
func (st *searchState) slot(id int) int32 {
	if s, ok := st.slotOf[id]; ok {
		return s
	}
	// Constraint mentions a variable with no declared domain; assume full
	// byte range extended for safety.
	return st.addSlot(id, undeclaredDom, 0, false)
}

// undeclaredDom is the domain of a variable a constraint mentions but the
// problem does not declare.
var undeclaredDom = interval{lo: -(1 << 31), hi: 1 << 31}

// addAtom instantiates a cached normal form against the current slots,
// reusing the atom structs (and their term slices) of previous calls.
func (st *searchState) addAtom(c sym.Constraint, ne *normEntry) {
	n := len(st.atoms)
	if n < cap(st.atoms) {
		st.atoms = st.atoms[:n+1]
	} else {
		st.atoms = append(st.atoms, atom{})
	}
	a := &st.atoms[n]
	a.ne = ne
	a.orig = c
	a.vars = a.vars[:0]
	a.terms = a.terms[:0]
	a.lform = a.lform[:0]
	a.rform = a.rform[:0]
	for _, v := range ne.vars {
		s := st.slot(v)
		a.vars = append(a.vars, s)
		st.varAtoms[s] = append(st.varAtoms[s], int32(n))
	}
	for _, t := range ne.terms {
		ts := st.slotOf[t.v]
		a.terms = append(a.terms, dterm{slot: ts, coeff: t.coeff})
		st.termAtoms[ts] = append(st.termAtoms[ts], int32(n))
	}
	if ne.hasEval {
		for _, t := range ne.lform {
			a.lform = append(a.lform, dterm{slot: st.slotOf[t.v], coeff: t.coeff})
		}
		for _, t := range ne.rform {
			a.rform = append(a.rform, dterm{slot: st.slotOf[t.v], coeff: t.coeff})
		}
	}
	a.unassigned = int32(len(a.vars))
	if n%64 == 0 {
		st.dirty = append(st.dirty, 0)
	}
	if ne.linear {
		st.dirty[n/64] |= 1 << (n % 64) // the first sweep runs every atom
	}
	st.varsBefore = append(st.varsBefore, st.varsBefore[n]+int64(len(a.vars)))
	if len(a.vars) == 0 {
		st.zeroVar = append(st.zeroVar, int32(n))
		st.sizeDecided += int64(ne.size)
	}
}

// touch records a mutation of the slot's domain, re-dirtying every atom with
// a propagation term on it. A clean atom re-run would recompute the same
// bounds from the same domains and change nothing, so skipping clean atoms
// preserves the sweep's changed flag, the sweep count and the final domains
// exactly.
func (st *searchState) touch(s int32) {
	for _, ai := range st.termAtoms[s] {
		st.dirty[ai/64] |= 1 << (ai % 64)
	}
}

// nextDirty returns the first dirty atom at or after i, or -1.
func (st *searchState) nextDirty(i int) int {
	w := i / 64
	if w >= len(st.dirty) {
		return -1
	}
	word := st.dirty[w] &^ (1<<(i%64) - 1)
	for word == 0 {
		if w++; w == len(st.dirty) {
			return -1
		}
		word = st.dirty[w]
	}
	return w*64 + bits.TrailingZeros64(word)
}

// narrow sets a slot's domain, recording the old one on the trail and
// re-dirtying the slot's atoms.
func (st *searchState) narrow(s int32, lo, hi int64) {
	st.trail = append(st.trail, trailEntry{slot: s, old: st.doms[s]})
	st.doms[s] = interval{lo: lo, hi: hi}
	st.touch(s)
}

// undo pops the trail back to mark, restoring each recorded domain and
// re-dirtying its atoms. Within one search level every recorded narrowing
// is strict (deeper levels undo their own), so the restored slots are
// exactly those whose domain differs from the one at mark.
func (st *searchState) undo(mark int) {
	for i := len(st.trail) - 1; i >= mark; i-- {
		e := st.trail[i]
		st.doms[e.slot] = e.old
		st.touch(e.slot)
	}
	st.trail = st.trail[:mark]
}

// overWork reports whether the per-call evaluation budget is spent.
func (st *searchState) overWork() bool { return st.work > st.solver.opts.MaxWork }

// overBudget reports whether the search ran out of nodes or work.
func (st *searchState) overBudget() bool {
	return st.nodes > st.solver.opts.MaxNodes || st.overWork()
}

// exactLimit bounds the magnitude of one side of a linear atom for exact.
const exactLimit = 1 << 61

// exact reports whether bounds reasoning over this call's linear atoms is
// integer arithmetic: for every linear atom, each side's |constant| plus the
// sum of |coeff|*max(|lo|,|hi|) over its terms stays within exactLimit under
// the declared domains, so neither the sides (evaluated with wraparound) nor
// propagation's partial sums can overflow int64. Only then is a domain
// emptied by propagation a proof of unsat. Propagation only narrows domains,
// so the declared ones bound every later state; slots past len(decl) are
// undeclared variables, interned after the declared ones.
func (st *searchState) exact(decl []VarDomain) bool {
	side := func(c int64, ts []dterm) bool {
		sum := absU(c)
		for _, t := range ts {
			iv := undeclaredDom
			if int(t.slot) < len(decl) {
				iv = interval{lo: decl[t.slot].Lo, hi: decl[t.slot].Hi}
			}
			m, k := max(absU(iv.lo), absU(iv.hi)), absU(t.coeff)
			if m != 0 && k > exactLimit/m {
				return false
			}
			if sum += k * m; sum > exactLimit {
				return false
			}
		}
		return sum <= exactLimit
	}
	for i := range st.atoms {
		a := &st.atoms[i]
		if a.ne.linear && !(side(a.ne.lc, a.lform) && side(a.ne.rc, a.rform)) {
			return false
		}
	}
	return true
}

// absU returns |v| without overflow.
func absU(v int64) uint64 {
	if v < 0 {
		return uint64(-v)
	}
	return uint64(v)
}

// value reads a slot under the current partial assignment, falling back to
// the seed.
func (st *searchState) value(s int32) int64 {
	if st.asnHas[s] {
		return st.asnVal[s]
	}
	return st.seedVal[s]
}

// Value implements sym.Assignment for evaluating fallback atoms: assigned
// slots first, then the seed; unknown IDs read as zero.
func (st *searchState) Value(id int) int64 {
	s, ok := st.slotOf[id]
	if !ok {
		return 0
	}
	return st.value(s)
}

// propagateAll runs bounds propagation over the dirty linear atoms to a
// fixed point. Each sweep walks the dirty set in atom order from a cursor,
// so an atom dirtied ahead of the cursor runs in the same sweep and one
// behind it in the next, as in a sweep over every atom; a sweep is charged
// len(atoms) either way. It returns false when some domain becomes empty
// (unsat).
func (st *searchState) propagateAll() bool {
	for changed := true; changed; {
		changed = false
		st.work += int64(len(st.atoms))
		for i := st.nextDirty(0); i >= 0; i = st.nextDirty(i + 1) {
			// Clear before running so the atom's own narrowing re-dirties it:
			// bounds reasoning can tighten further on a repeat pass.
			st.dirty[i/64] &^= 1 << (i % 64)
			ch, ok := st.propagateAtom(&st.atoms[i])
			if !ok {
				return false
			}
			changed = changed || ch
		}
	}
	return true
}

// propagateAtom tightens the domains of the variables of one linear atom
// using bounds reasoning on sum(coeff_i*x_i) + c REL 0.
func (st *searchState) propagateAtom(a *atom) (changed, ok bool) {
	for _, t := range a.terms {
		if st.doms[t.slot].empty() {
			return false, false
		}
	}
	// For each variable x, the rest of the atom bounds constrain x.
	for _, t := range a.terms {
		iv := &st.doms[t.slot]
		restLo, restHi := a.ne.c, a.ne.c
		for _, u := range a.terms {
			if u.slot == t.slot {
				continue
			}
			uv := &st.doms[u.slot]
			lo, hi := mulRange(u.coeff, uv.lo, uv.hi)
			restLo += lo
			restHi += hi
		}
		// coeff*x + rest REL 0.
		var lo, hi int64 // bounds for coeff*x
		hasLo, hasHi := false, false
		switch a.ne.r {
		case relEQ:
			// coeff*x = -rest  =>  coeff*x in [-restHi, -restLo]
			lo, hi, hasLo, hasHi = -restHi, -restLo, true, true
		case relLE:
			// coeff*x <= -rest => coeff*x <= -restLo
			hi, hasHi = -restLo, true
		case relLT:
			hi, hasHi = -restLo-1, true
		case relGE:
			lo, hasLo = -restHi, true
		case relGT:
			lo, hasLo = -restHi+1, true
		case relNE:
			// Only prunes when every other variable is fixed and the bound
			// value sits at an edge of x's domain.
			if restLo == restHi && t.coeff != 0 {
				if v, exact := divExact(-restLo, t.coeff); exact {
					nlo, nhi := iv.lo, iv.hi
					if nlo == v {
						nlo++
					}
					if nhi == v {
						nhi--
					}
					if nlo != iv.lo || nhi != iv.hi {
						st.narrow(t.slot, nlo, nhi)
						changed = true
					}
					if iv.empty() {
						return false, false
					}
				}
			}
			continue
		}
		nlo, nhi := divRangeForVar(t.coeff, lo, hi, hasLo, hasHi, iv)
		if nlo > iv.lo || nhi < iv.hi {
			st.narrow(t.slot, nlo, nhi) // divRangeForVar keeps it within iv
			changed = true
		}
		if iv.empty() {
			return false, false
		}
	}
	return changed, true
}

// mulRange returns the range of coeff*x for x in [lo,hi].
func mulRange(coeff, lo, hi int64) (int64, int64) {
	a, b := coeff*lo, coeff*hi
	if a > b {
		a, b = b, a
	}
	return a, b
}

// divExact returns v/c when c divides v exactly.
func divExact(v, c int64) (int64, bool) {
	if c == 0 {
		return 0, false
	}
	if v%c != 0 {
		return 0, false
	}
	return v / c, true
}

// divRangeForVar converts bounds on coeff*x into bounds on x, given the
// current domain iv (used when a side is unbounded).
func divRangeForVar(coeff, lo, hi int64, hasLo, hasHi bool, iv *interval) (int64, int64) {
	nlo, nhi := iv.lo, iv.hi
	if coeff == 0 {
		return nlo, nhi
	}
	if coeff > 0 {
		if hasLo {
			nlo = ceilDiv(lo, coeff)
		}
		if hasHi {
			nhi = floorDiv(hi, coeff)
		}
	} else {
		// coeff < 0 flips the inequality directions.
		if hasHi {
			nlo = ceilDiv(hi, coeff)
		}
		if hasLo {
			nhi = floorDiv(lo, coeff)
		}
	}
	if nlo < iv.lo {
		nlo = iv.lo
	}
	if nhi > iv.hi {
		nhi = iv.hi
	}
	return nlo, nhi
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}

// search assigns vars[idx:] by depth-first backtracking. A node costs the
// atoms of the slot it assigns and the propagation it causes; the work it
// charges is what a node that rescans every atom and copies every domain
// would charge (see checkDecided).
func (st *searchState) search(vars []int32, idx int) bool {
	st.nodes++
	st.solver.stats.Nodes++
	if st.overBudget() {
		return false
	}
	if idx == len(vars) {
		return st.checkAll()
	}
	s := vars[idx]
	iv := &st.doms[s]
	saved := *iv

	st.asnHas[s] = true
	for _, ai := range st.varAtoms[s] {
		a := &st.atoms[ai]
		if a.unassigned--; a.unassigned == 0 {
			st.sizeDecided += int64(a.ne.size)
		}
	}
	g := &st.gens[idx]
	g.start(saved, st.seedVal[s], st.seedHas[s], st.solver.opts.MaxValuesPerVar)
	for cand, ok := g.next(); ok; cand, ok = g.next() {
		st.asnVal[s] = cand
		// Narrow the domain to the candidate and propagate. The charge is a
		// copy of every domain now and its restore later.
		iv.lo, iv.hi = cand, cand
		st.touch(s)
		mark := len(st.trail)
		st.work += int64(len(st.doms)) * 2
		if st.propagateAll() && st.checkDecided(s) && st.search(vars, idx+1) {
			return true
		}
		st.undo(mark)
		*iv = saved
		st.touch(s)
		if st.overBudget() {
			// Budget exhausted: the whole search is being abandoned, so the
			// assignment bookkeeping need not be unwound.
			return false
		}
	}
	if g.clipped() {
		st.truncated = true
	}
	st.asnHas[s] = false
	for _, ai := range st.varAtoms[s] {
		a := &st.atoms[ai]
		if a.unassigned == 0 {
			st.sizeDecided -= int64(a.ne.size)
		}
		a.unassigned++
	}
	return false
}

// candGen enumerates one node's candidate values lazily, in deterministic
// order: the seed value first, then the domain edges, then an outward sweep
// around the seed (an ascending scan without one), clipped to the domain and
// the per-variable budget. One generator per search depth is reused, so
// enumeration allocates nothing in steady state and a node that succeeds
// early never builds the rest of its list.
type candGen struct {
	iv        interval
	seed      int64
	hasSeed   bool
	budget, n int   // values allowed and values emitted
	phase     uint8 // next step, one of the gen* constants
	d         int64 // sweep distance, or scan position without a seed
	// The prefix values are the only possible duplicates: sweep values
	// differ from the seed (distance >= 1) and from each other, so tracking
	// which prefix values were emitted replaces a seen-set.
	seedAdded, loAdded, hiAdded bool
}

const (
	genSeed uint8 = iota
	genLo
	genHi
	genUp   // seed + d
	genDown // seed - d
	genScan // lo..hi, without a seed
	genDone
)

// start begins the enumeration of domain iv.
func (g *candGen) start(iv interval, seed int64, hasSeed bool, budget int) {
	*g = candGen{iv: iv, seed: seed, hasSeed: hasSeed, budget: budget}
	if iv.empty() {
		g.phase = genDone
	}
}

// next returns the next candidate, or false when the node has none left.
func (g *candGen) next() (int64, bool) {
	for g.n < g.budget {
		switch g.phase {
		case genSeed:
			g.phase = genLo
			if g.hasSeed && g.iv.contains(g.seed) {
				g.seedAdded = true
				return g.emit(g.seed)
			}
		case genLo:
			// Domain edges early: equality against constants typically lands
			// there after propagation.
			g.phase = genHi
			if !(g.seedAdded && g.iv.lo == g.seed) {
				g.loAdded = true
				return g.emit(g.iv.lo)
			}
		case genHi:
			g.phase, g.d = genScan, g.iv.lo
			if g.hasSeed {
				g.phase, g.d = genUp, 1
			}
			if !(g.seedAdded && g.iv.hi == g.seed) && !(g.loAdded && g.iv.hi == g.iv.lo) {
				g.hiAdded = true
				return g.emit(g.iv.hi)
			}
		case genUp:
			if g.d > g.iv.hi-g.iv.lo {
				g.phase = genDone
				continue
			}
			g.phase = genDown
			if x := g.seed + g.d; g.fresh(x) {
				return g.emit(x)
			}
		case genDown:
			x := g.seed - g.d
			g.phase, g.d = genUp, g.d+1
			if g.fresh(x) {
				return g.emit(x)
			}
		case genScan:
			if g.d > g.iv.hi {
				g.phase = genDone
				continue
			}
			x := g.d
			g.d++
			if !(g.loAdded && x == g.iv.lo) && !(g.hiAdded && x == g.iv.hi) {
				return g.emit(x)
			}
		default:
			return 0, false
		}
	}
	return 0, false
}

func (g *candGen) emit(x int64) (int64, bool) {
	g.n++
	return x, true
}

// fresh reports whether sweep value x lies in the domain and is not an edge
// already emitted.
func (g *candGen) fresh(x int64) bool {
	return g.iv.contains(x) && !(g.loAdded && x == g.iv.lo) && !(g.hiAdded && x == g.iv.hi)
}

// clipped reports whether the enumeration, once exhausted, left out values
// of its domain.
func (g *candGen) clipped() bool {
	return int64(g.n) < g.iv.width()
}

// checkDecided evaluates the atoms slot s just decided: those whose last
// unassigned variable is s, plus the variable-free atoms not yet verified,
// in atom order. It returns false on the first violation. Every other fully
// assigned atom already evaluated true at the node that decided it and
// keeps holding, since deeper nodes only assign other slots and evaluation
// reads assignments, not domains.
//
// The charge is that of a check over every atom, which pays len(vars) per
// atom and ne.size per fully assigned one: two running sums on success,
// and the prefix up to the violated atom on a violation.
func (st *searchState) checkDecided(s int32) bool {
	va, zv := st.varAtoms[s], st.zeroVar[st.zeroOK:]
	for len(va) > 0 || len(zv) > 0 {
		var ai int32
		if len(zv) == 0 || (len(va) > 0 && va[0] < zv[0]) {
			ai, va = va[0], va[1:]
			if st.atoms[ai].unassigned != 0 {
				continue
			}
		} else {
			ai, zv = zv[0], zv[1:]
		}
		if !st.holds(&st.atoms[ai]) {
			st.work += st.varsBefore[ai+1]
			for i := range ai + 1 {
				if a := &st.atoms[i]; a.unassigned == 0 {
					st.work += int64(a.ne.size)
				}
			}
			return false
		}
		if len(st.atoms[ai].vars) == 0 {
			st.zeroOK++
		}
	}
	st.work += st.varsBefore[len(st.atoms)] + st.sizeDecided
	return true
}

// checkAll verifies every atom under the full assignment (seed-filling
// unassigned vars, which can only be vars outside all atoms).
func (st *searchState) checkAll() bool {
	for i := range st.atoms {
		a := &st.atoms[i]
		st.work += int64(a.ne.size)
		if !st.holds(a) {
			return false
		}
	}
	return true
}

// holds decides one atom under the current assignment. Linearized atoms
// are evaluated directly from their side forms — exactly equivalent to
// evaluating the original expression, since linearization preserves values
// under two's-complement wraparound — and only true fallback atoms walk the
// original expression tree.
func (st *searchState) holds(a *atom) bool {
	if a.ne.hasEval {
		l := a.ne.lc
		for _, t := range a.lform {
			l += t.coeff * st.value(t.slot)
		}
		r := a.ne.rc
		for _, t := range a.rform {
			r += t.coeff * st.value(t.slot)
		}
		return holdsRel(a.ne.r, l, r)
	}
	return a.orig.Holds(st)
}

// holdsRel evaluates l REL r over signed 64-bit values.
func holdsRel(r rel, l, rv int64) bool {
	switch r {
	case relEQ:
		return l == rv
	case relNE:
		return l != rv
	case relLT:
		return l < rv
	case relLE:
		return l <= rv
	case relGT:
		return l > rv
	case relGE:
		return l >= rv
	}
	panic("solver: bad rel in holdsRel")
}
