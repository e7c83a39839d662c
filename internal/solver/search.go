package solver

import "pathlog/internal/sym"

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
type searchState struct {
	solver *Solver

	slotOf map[int]int32 // variable ID -> slot
	idOf   []int         // slot -> variable ID

	doms      []interval // current domain per slot
	seedVal   []int64    // clamped seed value per slot (0 when no seed)
	seedHas   []bool     // whether the slot's variable appeared in p.Domains
	asnVal    []int64    // search assignment per slot
	asnHas    []bool     // whether the slot is currently assigned
	varAtoms  [][]int32  // atom indices mentioning each slot
	termAtoms [][]int32  // atom indices with a propagation term on each slot
	atomDirty []bool     // per-atom: some term domain changed since its last run
	decidedOK []bool     // per-atom: fully assigned and already verified true

	atoms []atom

	order     []int32    // searched slots, most-constrained first
	snapStack []interval // LIFO domain snapshots, one doms-sized block per node
	candBufs  [][]int64  // per-depth candidate buffers

	nodes int
	work  int64
	// truncated records that some candidate list left out values of its
	// domain, so an exhausted search is no proof of unsat. Lists are clipped
	// to MaxValuesPerVar, and the sweep around a seed that lies outside the
	// (propagated) domain reaches only part of it.
	truncated bool
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
	st.atomDirty = st.atomDirty[:0]
	st.decidedOK = st.decidedOK[:0]
	st.snapStack = st.snapStack[:0]
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
	st.atomDirty = append(st.atomDirty, true) // the first sweep runs every atom
	st.decidedOK = append(st.decidedOK, false)
}

// touch records a mutation of the slot's domain, re-dirtying every atom with
// a propagation term on it. A clean atom re-run would recompute the same
// bounds from the same domains and change nothing, so skipping clean atoms
// preserves the sweep's changed flag, the sweep count and the final domains
// exactly.
func (st *searchState) touch(s int32) {
	for _, ai := range st.termAtoms[s] {
		st.atomDirty[ai] = true
	}
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

// propagateAll runs bounds propagation over all linear atoms to a fixed
// point. It returns false when some domain becomes empty (unsat).
func (st *searchState) propagateAll() bool {
	for changed := true; changed; {
		changed = false
		st.work += int64(len(st.atoms))
		for i := range st.atoms {
			a := &st.atoms[i]
			if !a.ne.linear || !st.atomDirty[i] {
				continue
			}
			// Clear before running so the atom's own narrowing re-dirties it:
			// bounds reasoning can tighten further on a repeat pass.
			st.atomDirty[i] = false
			ch, ok := st.propagateAtom(a)
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
					ch := false
					if iv.lo == v {
						iv.lo++
						ch = true
					}
					if iv.hi == v {
						iv.hi--
						ch = true
					}
					if ch {
						st.touch(t.slot)
					}
					if iv.empty() {
						return false, false
					}
					changed = changed || ch
				}
			}
			continue
		}
		nlo, nhi := divRangeForVar(t.coeff, lo, hi, hasLo, hasHi, iv)
		if nlo > iv.lo || nhi < iv.hi {
			if nlo > iv.lo {
				iv.lo = nlo
			}
			if nhi < iv.hi {
				iv.hi = nhi
			}
			st.touch(t.slot)
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

// search assigns vars[idx:] by depth-first backtracking.
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
		st.atoms[ai].unassigned--
	}
	for _, cand := range st.candidates(idx, s, iv) {
		st.asnVal[s] = cand
		// The new value invalidates the decided-atom memo of every atom
		// this slot participates in.
		for _, ai := range st.varAtoms[s] {
			st.decidedOK[ai] = false
		}
		// Narrow the domain to the candidate and propagate.
		iv.lo, iv.hi = cand, cand
		st.touch(s)
		base := st.snapshotDomains()
		if st.propagateAll() && st.checkDecided() && st.search(vars, idx+1) {
			return true
		}
		st.restoreDomains(base)
		*iv = saved
		st.touch(s)
		if st.overBudget() {
			// Budget exhausted: the whole search is being abandoned, so the
			// assignment bookkeeping need not be unwound.
			return false
		}
	}
	st.asnHas[s] = false
	for _, ai := range st.varAtoms[s] {
		st.atoms[ai].unassigned++
	}
	return false
}

// candidates enumerates values for the slot in deterministic order: the seed
// value first, then the domain edges, then an outward sweep around the seed,
// clipped to the domain and the per-variable budget. The buffer is reused
// per search depth, so enumeration allocates nothing in steady state.
func (st *searchState) candidates(depth int, s int32, iv *interval) []int64 {
	budget := st.solver.opts.MaxValuesPerVar
	for len(st.candBufs) <= depth {
		st.candBufs = append(st.candBufs, nil)
	}
	out := st.candBufs[depth][:0]
	defer func() { st.candBufs[depth] = out }()
	if iv.empty() {
		return out
	}
	seedV, hasSeed := st.seedVal[s], st.seedHas[s]
	lo, hi := iv.lo, iv.hi
	// The prefix values below are the only possible duplicates: sweep values
	// differ from the seed (distance >= 1) and from each other, so tracking
	// which prefix values were emitted replaces a seen-set.
	var seedAdded, loAdded, hiAdded bool
	if hasSeed && len(out) < budget && iv.contains(seedV) {
		out = append(out, seedV)
		seedAdded = true
	}
	// Domain edges early: equality against constants typically lands there
	// after propagation.
	if len(out) < budget && !(seedAdded && lo == seedV) {
		out = append(out, lo)
		loAdded = true
	}
	if len(out) < budget && !(seedAdded && hi == seedV) && !(loAdded && hi == lo) {
		out = append(out, hi)
		hiAdded = true
	}
	if hasSeed {
		for d := int64(1); len(out) < budget && d <= hi-lo; d++ {
			if x := seedV + d; x >= lo && x <= hi && !(loAdded && x == lo) && !(hiAdded && x == hi) {
				out = append(out, x)
			}
			if x := seedV - d; len(out) < budget && x >= lo && x <= hi && !(loAdded && x == lo) && !(hiAdded && x == hi) {
				out = append(out, x)
			}
		}
	} else {
		for x := lo; len(out) < budget && x <= hi; x++ {
			if (loAdded && x == lo) || (hiAdded && x == hi) {
				continue
			}
			out = append(out, x)
		}
	}
	if int64(len(out)) < iv.width() {
		st.truncated = true
	}
	return out
}

// snapshotDomains pushes a copy of every domain onto the snapshot stack and
// returns the restore point. Snapshots nest strictly LIFO with the search.
func (st *searchState) snapshotDomains() int {
	st.work += int64(len(st.doms)) * 2 // copy now, restore later
	base := len(st.snapStack)
	st.snapStack = append(st.snapStack, st.doms...)
	return base
}

func (st *searchState) restoreDomains(base int) {
	snap := st.snapStack[base:]
	for i := range st.doms {
		if st.doms[i] != snap[i] {
			st.doms[i] = snap[i]
			st.touch(int32(i))
		}
	}
	st.snapStack = st.snapStack[:base]
}

// checkDecided evaluates every atom whose variables are all assigned;
// returns false on any violation. An atom that already evaluated true keeps
// holding as long as none of its variables is re-assigned (deeper search
// nodes only assign other slots and evaluation reads assignments, not
// domains), so its re-evaluation is skipped — while still charging the
// work the evaluation would have cost, keeping the budget's observable
// trajectory identical.
func (st *searchState) checkDecided() bool {
	for i := range st.atoms {
		a := &st.atoms[i]
		st.work += int64(len(a.vars))
		if a.unassigned != 0 {
			continue
		}
		if st.decidedOK[i] {
			st.work += int64(a.ne.size)
			continue
		}
		if !st.evalAtom(a) {
			return false
		}
		st.decidedOK[i] = true
	}
	return true
}

// checkAll verifies every atom under the full assignment (seed-filling
// unassigned vars, which can only be vars outside all atoms).
func (st *searchState) checkAll() bool {
	for i := range st.atoms {
		if !st.evalAtom(&st.atoms[i]) {
			return false
		}
	}
	return true
}

// evalAtom decides one atom under the current assignment. Linearized atoms
// are evaluated directly from their side forms — exactly equivalent to
// evaluating the original expression, since linearization preserves values
// under two's-complement wraparound — and only true fallback atoms walk the
// original expression tree.
func (st *searchState) evalAtom(a *atom) bool {
	st.work += int64(a.ne.size)
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
