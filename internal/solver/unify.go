package solver

import (
	"reflect"
	"slices"

	"pathlog/internal/sym"
)

// uniTabBits sizes the unifier's per-call hash memo when it is first
// allocated; a call that fills half of it doubles it.
const uniTabBits = 10

// unifier is the equality-unification proof step. The atoms x - y == 0
// (from x == y, or from a negated x != y) put x and y in one class of a
// union-find forest; an atom asserting !=, < or > between two sides that are
// identical once every variable is renamed to its class representative can
// then never hold, so the conjunction is unsat.
//
// This is exactly the shape the concolic search meets in diff: the path
// prefix compares two lines byte for byte (a_i == b_i) and the negated branch
// asserts their hashes differ. Search would enumerate hash-chain values until
// the work budget ran out; unification proves it in under a hundred node
// visits.
//
// The step only detects. It reads the call's cached normal forms and the
// constraint expressions and touches nothing the later pipeline reads, so on
// a call it does not prove unsat the atoms, domains, variable order and
// work charges are exactly those of a solver without it. A call with no
// variable-to-variable equality returns after one scan and allocates nothing.
type unifier struct {
	ids    []int   // sorted distinct variables of the equality atoms
	parent []int32 // union-find forest over ids (index-based)
	work   int64   // expression nodes visited this call

	// memo caches renaming-aware hashes per expression node for one call
	// (classes change between calls); a slot is live only when its epoch
	// matches the call's. It is open-addressed, so every node hashed in
	// the call stays in it and the work charged is a function of the
	// problem alone, not of where its nodes happen to lie in memory.
	memo  []uniSlot
	shift uint // 64 - log2(len(memo))
	used  int  // live slots this call
	epoch uint32
}

type uniSlot struct {
	e     sym.Expr
	epoch uint32
	h     uint64
}

// provesUnsat runs the step over one call's constraints and their normal
// forms. It reports whether the conjunction is proved unsat and the work
// (expression nodes hashed or compared) the proof cost.
func (u *unifier) provesUnsat(cs []sym.Constraint, nes []*normEntry) (work int64, proved bool) {
	u.ids = u.ids[:0]
	for _, ne := range nes {
		if varEquality(ne) {
			u.ids = append(u.ids, ne.terms[0].v, ne.terms[1].v)
		}
	}
	if len(u.ids) == 0 {
		return 0, false
	}
	slices.Sort(u.ids)
	u.ids = slices.Compact(u.ids)
	u.parent = u.parent[:0]
	for i := range u.ids {
		u.parent = append(u.parent, int32(i))
	}
	for _, ne := range nes {
		if !varEquality(ne) {
			continue
		}
		a, b := u.find(u.index(ne.terms[0].v)), u.find(u.index(ne.terms[1].v))
		// The smaller index roots the class, so a class's representative
		// is its smallest variable ID.
		if a < b {
			u.parent[b] = a
		} else if b < a {
			u.parent[a] = b
		}
	}

	u.beginCall()
	for _, c := range cs {
		lhs, rhs, r, ok := splitComparison(c.E)
		if !ok {
			continue
		}
		if !c.Truth {
			r = negateRel(r)
		}
		if r != relNE && r != relLT && r != relGT {
			continue
		}
		// The hash is a function of structure modulo renaming, so unequal
		// hashes rule identity out; equal ones are confirmed structurally,
		// so a collision can never produce a false proof.
		if u.hash(lhs) == u.hash(rhs) && u.equal(lhs, rhs) {
			return u.work, true
		}
	}
	return 0, false
}

// varEquality reports whether a normal form asserts two input variables
// equal: x - y == 0 with unit coefficients and no constant. Wraparound
// cannot fake it — x - y == 0 in two's complement holds exactly when x == y.
func varEquality(ne *normEntry) bool {
	return ne.linear && ne.r == relEQ && ne.c == 0 && len(ne.terms) == 2 &&
		(ne.terms[0].coeff == 1 && ne.terms[1].coeff == -1 ||
			ne.terms[0].coeff == -1 && ne.terms[1].coeff == 1)
}

// index returns the position of an equality variable in ids, or -1.
func (u *unifier) index(id int) int32 {
	if i, ok := slices.BinarySearch(u.ids, id); ok {
		return int32(i)
	}
	return -1
}

// find returns the root of i's class, compressing the path.
func (u *unifier) find(i int32) int32 {
	for u.parent[i] != i {
		u.parent[i] = u.parent[u.parent[i]]
		i = u.parent[i]
	}
	return i
}

// rep returns the representative variable ID of id's class.
func (u *unifier) rep(id int) int {
	if i := u.index(id); i >= 0 {
		return u.ids[u.find(i)]
	}
	return id
}

// beginCall resets the work count and invalidates the memo of the previous
// call, allocating the memo on the first call that needs it.
func (u *unifier) beginCall() {
	u.work, u.used = 0, 0
	if u.memo == nil {
		u.memo, u.shift = make([]uniSlot, 1<<uniTabBits), 64-uniTabBits
	}
	u.epoch++
	if u.epoch == 0 {
		// The epoch wrapped: stale slots could match again.
		clear(u.memo)
		u.epoch = 1
	}
}

// hash is a structural hash (operators, shape, constants, input IDs) with
// every input renamed to its class representative, memoized per interior
// node for the current call.
func (u *unifier) hash(e sym.Expr) uint64 {
	switch x := e.(type) {
	case *sym.Const:
		return hashConst(x)
	case *sym.Input:
		return hashInput(u.rep(x.ID))
	}
	if slot := u.lookup(e); slot.epoch == u.epoch {
		return slot.h
	}
	u.work++
	var h uint64
	switch x := e.(type) {
	case *sym.Un:
		h = hashUn(x.Op, u.hash(x.X))
	case *sym.Bin:
		h = hashBin(x.Op, u.hash(x.L), u.hash(x.R))
	default:
		h = fibMix
	}
	if 2*(u.used+1) > len(u.memo) {
		u.grow()
	}
	slot := u.lookup(e)
	slot.e, slot.epoch, slot.h = e, u.epoch, h
	u.used++
	return h
}

// lookup returns the memo slot of interior node e: the live slot holding
// it, or the free slot its probe sequence reaches first.
func (u *unifier) lookup(e sym.Expr) *uniSlot {
	mask := len(u.memo) - 1
	i := int((uint64(reflect.ValueOf(e).Pointer()) * fibMix) >> u.shift)
	for {
		slot := &u.memo[i]
		if slot.epoch != u.epoch || slot.e == e {
			return slot
		}
		i = (i + 1) & mask
	}
}

// grow doubles the memo, moving this call's live slots into it.
func (u *unifier) grow() {
	old := u.memo
	u.memo, u.shift = make([]uniSlot, 2*len(old)), u.shift-1
	for _, s := range old {
		if s.epoch == u.epoch {
			*u.lookup(s.e) = s
		}
	}
}

// The renaming-aware hash's node mixers. Work counts the nodes the
// unifier hashes and compares, so a mixer with other collisions would move
// it.
const fibMix = 0x9E3779B97F4A7C15

func hashConst(c *sym.Const) uint64         { return (uint64(c.V) ^ 0xC0) * fibMix }
func hashInput(id int) uint64               { return (uint64(id) ^ 0x1A) * fibMix }
func hashUn(op sym.Op, x uint64) uint64     { return (x + uint64(op) + 1) * fibMix }
func hashBin(op sym.Op, l, r uint64) uint64 { return (l*3 + r + uint64(op)) * fibMix }

// equal is structEq modulo the unification: inputs match when their classes
// do. Subtrees with different hashes are unequal without a walk.
func (u *unifier) equal(a, b sym.Expr) bool {
	u.work++
	if a == b {
		return true
	}
	switch x := a.(type) {
	case *sym.Const:
		y, ok := b.(*sym.Const)
		return ok && x.V == y.V
	case *sym.Input:
		y, ok := b.(*sym.Input)
		return ok && u.rep(x.ID) == u.rep(y.ID)
	case *sym.Un:
		y, ok := b.(*sym.Un)
		return ok && x.Op == y.Op && u.equal(x.X, y.X)
	case *sym.Bin:
		y, ok := b.(*sym.Bin)
		return ok && x.Op == y.Op &&
			u.hash(x.L) == u.hash(y.L) && u.hash(x.R) == u.hash(y.R) &&
			u.equal(x.L, y.L) && u.equal(x.R, y.R)
	}
	return false
}
