package solver

import (
	"cmp"
	"slices"
	"testing"

	"pathlog/internal/sym"
)

// This file keeps the full-scan search the incremental one replaced, as a
// test-only reference. Every search node of the reference rescans every atom
// twice (propagation sweeps over a dirty flag per atom, then a decided-atom
// check over all atoms), copies every domain onto a snapshot stack and
// builds the node's whole candidate list up front. The incremental search
// must agree with it on every problem: outcome, model, Nodes and Work.
//
// The reference shares the Solver's per-call set-up (slots, atoms, the
// seed check and unification) and none of its per-node bookkeeping.

// refState is the reference search's per-node bookkeeping over a
// searchState's slots and atoms.
type refState struct {
	st        *searchState
	atomDirty []bool     // per-atom: some term domain changed since its last run
	decidedOK []bool     // per-atom: fully assigned and already verified true
	snapStack []interval // LIFO domain snapshots, one doms-sized block per node
	candBufs  [][]int64  // per-depth candidate buffers
	nodes     int
	work      int64
	truncated bool
}

// refSolve is Solver.Solve with the reference search. It returns the
// call's model, whether it found one and the Stats the call added.
func refSolve(s *Solver, p Problem) (sym.MapAssignment, bool, Stats) {
	before := s.stats
	asn, ok := s.refSolveCall(p)
	after := s.stats
	return asn, ok, Stats{
		Calls: after.Calls - before.Calls, Sat: after.Sat - before.Sat,
		Unsat: after.Unsat - before.Unsat, GaveUp: after.GaveUp - before.GaveUp,
		Nodes: after.Nodes - before.Nodes, Work: after.Work - before.Work,
		Atoms: after.Atoms - before.Atoms, Fallbacks: after.Fallbacks - before.Fallbacks,
	}
}

func (s *Solver) refSolveCall(p Problem) (sym.MapAssignment, bool) {
	s.stats.Calls++
	s.fit(len(p.Constraints))
	seedAsn := make(sym.MapAssignment, len(p.Domains))
	for _, d := range p.Domains {
		seedAsn[d.ID] = min(max(p.Seed[d.ID], d.Lo), d.Hi)
	}
	nes := make([]*normEntry, len(p.Constraints))
	for i, c := range p.Constraints {
		nes[i] = s.normalized(c)
	}
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
	for i, c := range p.Constraints {
		s.stats.Atoms++
		if !nes[i].linear {
			s.stats.Fallbacks++
		}
		st.addAtom(c, nes[i])
	}
	r := &refState{st: st}
	r.atomDirty = make([]bool, len(st.atoms))
	r.decidedOK = make([]bool, len(st.atoms))
	for i := range r.atomDirty {
		r.atomDirty[i] = true // the first sweep runs every atom
	}
	fail := func(proved bool) (sym.MapAssignment, bool) {
		s.stats.Work += r.work
		if proved {
			s.stats.Unsat++
		} else {
			s.stats.GaveUp++
		}
		return nil, false
	}
	if !r.propagateAll() {
		return fail(st.exact(p.Domains))
	}
	var vars []int32
	for slot := range st.doms {
		if len(st.varAtoms[slot]) > 0 {
			vars = append(vars, int32(slot))
		}
	}
	slices.SortFunc(vars, func(a, b int32) int {
		if c := cmp.Compare(st.doms[a].width(), st.doms[b].width()); c != 0 {
			return c
		}
		return cmp.Compare(st.idOf[a], st.idOf[b])
	})
	if !r.search(vars, 0) {
		return fail(!r.overBudget() && !r.truncated && st.exact(p.Domains))
	}
	out := seedAsn
	for _, slot := range vars {
		out[st.idOf[slot]] = st.asnVal[slot]
	}
	for i, c := range p.Constraints {
		if !evalNorm(nes[i], c, out) {
			return fail(false)
		}
	}
	s.stats.Sat++
	s.stats.Work += r.work
	return out, true
}

func (r *refState) touch(s int32) {
	for _, ai := range r.st.termAtoms[s] {
		r.atomDirty[ai] = true
	}
}

func (r *refState) overBudget() bool {
	o := r.st.solver.opts
	return r.nodes > o.MaxNodes || r.work > o.MaxWork
}

func (r *refState) propagateAll() bool {
	st := r.st
	for changed := true; changed; {
		changed = false
		r.work += int64(len(st.atoms))
		for i := range st.atoms {
			a := &st.atoms[i]
			if !a.ne.linear || !r.atomDirty[i] {
				continue
			}
			r.atomDirty[i] = false
			ch, ok := r.propagateAtom(a)
			if !ok {
				return false
			}
			changed = changed || ch
		}
	}
	return true
}

func (r *refState) propagateAtom(a *atom) (changed, ok bool) {
	st := r.st
	for _, t := range a.terms {
		if st.doms[t.slot].empty() {
			return false, false
		}
	}
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
		var lo, hi int64
		hasLo, hasHi := false, false
		switch a.ne.r {
		case relEQ:
			lo, hi, hasLo, hasHi = -restHi, -restLo, true, true
		case relLE:
			hi, hasHi = -restLo, true
		case relLT:
			hi, hasHi = -restLo-1, true
		case relGE:
			lo, hasLo = -restHi, true
		case relGT:
			lo, hasLo = -restHi+1, true
		case relNE:
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
						r.touch(t.slot)
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
			r.touch(t.slot)
			changed = true
		}
		if iv.empty() {
			return false, false
		}
	}
	return changed, true
}

func (r *refState) search(vars []int32, idx int) bool {
	st := r.st
	r.nodes++
	st.solver.stats.Nodes++
	if r.overBudget() {
		return false
	}
	if idx == len(vars) {
		return r.checkAll()
	}
	s := vars[idx]
	iv := &st.doms[s]
	saved := *iv

	st.asnHas[s] = true
	for _, ai := range st.varAtoms[s] {
		st.atoms[ai].unassigned--
	}
	for _, cand := range r.candidates(idx, s, iv) {
		st.asnVal[s] = cand
		for _, ai := range st.varAtoms[s] {
			r.decidedOK[ai] = false
		}
		iv.lo, iv.hi = cand, cand
		r.touch(s)
		base := r.snapshotDomains()
		if r.propagateAll() && r.checkDecided() && r.search(vars, idx+1) {
			return true
		}
		r.restoreDomains(base)
		*iv = saved
		r.touch(s)
		if r.overBudget() {
			return false
		}
	}
	st.asnHas[s] = false
	for _, ai := range st.varAtoms[s] {
		st.atoms[ai].unassigned++
	}
	return false
}

func (r *refState) candidates(depth int, s int32, iv *interval) []int64 {
	st := r.st
	budget := st.solver.opts.MaxValuesPerVar
	for len(r.candBufs) <= depth {
		r.candBufs = append(r.candBufs, nil)
	}
	out := r.candBufs[depth][:0]
	defer func() { r.candBufs[depth] = out }()
	if iv.empty() {
		return out
	}
	seedV, hasSeed := st.seedVal[s], st.seedHas[s]
	lo, hi := iv.lo, iv.hi
	var seedAdded, loAdded, hiAdded bool
	if hasSeed && len(out) < budget && iv.contains(seedV) {
		out = append(out, seedV)
		seedAdded = true
	}
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
		r.truncated = true
	}
	return out
}

func (r *refState) snapshotDomains() int {
	st := r.st
	r.work += int64(len(st.doms)) * 2
	base := len(r.snapStack)
	r.snapStack = append(r.snapStack, st.doms...)
	return base
}

func (r *refState) restoreDomains(base int) {
	st := r.st
	snap := r.snapStack[base:]
	for i := range st.doms {
		if st.doms[i] != snap[i] {
			st.doms[i] = snap[i]
			r.touch(int32(i))
		}
	}
	r.snapStack = r.snapStack[:base]
}

func (r *refState) checkDecided() bool {
	st := r.st
	for i := range st.atoms {
		a := &st.atoms[i]
		r.work += int64(len(a.vars))
		if a.unassigned != 0 {
			continue
		}
		if r.decidedOK[i] {
			r.work += int64(a.ne.size)
			continue
		}
		if !r.evalAtom(a) {
			return false
		}
		r.decidedOK[i] = true
	}
	return true
}

func (r *refState) checkAll() bool {
	for i := range r.st.atoms {
		if !r.evalAtom(&r.st.atoms[i]) {
			return false
		}
	}
	return true
}

func (r *refState) evalAtom(a *atom) bool {
	r.work += int64(a.ne.size)
	return r.st.holds(a)
}

// TestSearchMatchesReference solves generated problems with the
// incremental search and with the reference, each on its own Solver, and
// requires the same outcome, model, Nodes and Work. Every problem runs
// under tight node, work and value budgets as well as its own options, so
// the charge of a violated decided atom, a budget stop mid-node and a
// clipped candidate list are all exercised. One problem in eight is
// conjoined from many rebuilt copies (see copiesOf), so atom sets span
// several words of the dirty set.
func TestSearchMatchesReference(t *testing.T) {
	var searched, gaveUp, clipped int
	solvers := map[Options][2]*Solver{}
	for seed := uint64(0); seed < 2500; seed++ {
		r := &oracleRand{s: seed ^ 0x5EED}
		copies := 1
		if r.n(8) == 0 {
			copies = 2 + r.n(60)
		}
		p, own := copiesOf(seed, copies)
		tight := Options{
			MaxNodes:        1 + r.n(40),
			MaxWork:         int64(8 + r.n(400*copies)),
			MaxValuesPerVar: 1 + r.n(5),
		}
		for _, opts := range []Options{own, tight} {
			pair, ok := solvers[opts]
			if !ok {
				pair = [2]*Solver{New(opts), New(opts)}
				solvers[opts] = pair
			}
			inc, ref := pair[0], pair[1]
			inc.ResetStats()
			asn, sat := inc.Solve(p)
			got := inc.Stats()
			wantAsn, wantSat, want := refSolve(ref, p)
			if sat != wantSat || got != want {
				t.Fatalf("seed %d, opts %+v: incremental search %v %+v, reference %v %+v", seed, opts, sat, got, wantSat, want)
			}
			if len(asn) != len(wantAsn) {
				t.Fatalf("seed %d, opts %+v: model %v, reference %v", seed, opts, asn, wantAsn)
			}
			for id, v := range wantAsn {
				if asn[id] != v {
					t.Fatalf("seed %d, opts %+v: model %v, reference %v", seed, opts, asn, wantAsn)
				}
			}
			if got.Nodes > 0 {
				searched++
			}
			if got.GaveUp > 0 {
				gaveUp++
			}
			if inc.st.truncated {
				clipped++
			}
		}
	}
	t.Logf("%d searched calls, %d gave up, %d clipped a candidate list", searched, gaveUp, clipped)
	if searched == 0 || gaveUp == 0 || clipped == 0 {
		t.Error("the generated problems no longer exercise search, give-ups and clipped candidate lists")
	}
}

// TestCandidatesMatchReference holds the lazy candidate generator to the
// reference's up-front list over small domains, seeds inside, beside and
// far outside them, and budgets below and above the domain width: the
// same values in the same order, and the same clipped verdict once the
// node runs out of values.
func TestCandidatesMatchReference(t *testing.T) {
	st := &searchState{solver: New(Options{}), seedVal: []int64{0}, seedHas: []bool{false}}
	r := &refState{st: st}
	var g candGen
	check := func(iv interval, seed int64, hasSeed bool, budget int) {
		st.solver.opts.MaxValuesPerVar = budget
		st.seedVal[0], st.seedHas[0] = seed, hasSeed
		r.truncated = false
		want := r.candidates(0, 0, &iv)
		var got []int64
		g.start(iv, seed, hasSeed, budget)
		for x, ok := g.next(); ok; x, ok = g.next() {
			got = append(got, x)
		}
		if !slices.Equal(got, want) || g.clipped() != r.truncated {
			t.Fatalf("domain %+v, seed %d (%v), budget %d: generated %v (clipped %v), reference %v (truncated %v)",
				iv, seed, hasSeed, budget, got, g.clipped(), want, r.truncated)
		}
	}
	for lo := int64(-3); lo <= 6; lo++ {
		for hi := lo - 1; hi <= lo+12; hi++ {
			for seed := int64(-20); seed <= 25; seed++ {
				for _, budget := range []int{1, 2, 3, 4, 7, 12, 1024} {
					check(interval{lo: lo, hi: hi}, seed, true, budget)
					check(interval{lo: lo, hi: hi}, seed, false, budget)
				}
			}
		}
	}
	// A byte narrowed far from its seed, as after propagation.
	for _, seed := range []int64{0, 89990, 95000, 100010, 200000} {
		for _, budget := range []int{3, 1024} {
			check(interval{lo: 90000, hi: 100000}, seed, true, budget)
		}
	}
}
