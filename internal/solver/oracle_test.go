package solver

import (
	"testing"

	"pathlog/internal/sym"
)

// This file is the solver's brute-force oracle. A seeded generator builds
// small problems — at most 4 variables of at most 4 values each — mixing
// variable equalities, linear atoms and diff-style hash-chain atoms (%, *,
// &), and enumeration over the declared domains decides each one exactly.
// Against that truth the oracle checks that every model satisfies every
// constraint, every Unsat claim is a real proof, and a call that ran out of
// budget is never counted as Unsat.
//
// FuzzSolverOracle is the open-ended fuzz entry (seed corpus committed under
// testdata/fuzz); TestSolverOracleFixedSeeds pins a deterministic slice of
// the same space for every CI run.

// oracleRand is a splitmix64 generator; a fuzzer-remembered seed must map to
// the same problem forever, so the stream is owned here.
type oracleRand struct{ s uint64 }

func (r *oracleRand) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// n returns a value in [0, n).
func (r *oracleRand) n(n int) int { return int(r.next() % uint64(n)) }

// between returns a value in [lo, hi].
func (r *oracleRand) between(lo, hi int64) int64 { return lo + int64(r.n(int(hi-lo+1))) }

var oracleCmps = []sym.Op{sym.OpEq, sym.OpNe, sym.OpLt, sym.OpLe, sym.OpGt, sym.OpGe}

// genProblem builds the problem and solver options of one seed.
func genProblem(seed uint64) (Problem, Options) {
	r := &oracleRand{s: seed}
	nv := 1 + r.n(4)
	vars := make([]*sym.Input, nv)
	p := Problem{Seed: sym.MapAssignment{}}
	base := r.between(-3, 256) // nearby domains, so variables can be equal
	for i := range vars {
		lo := base + int64(r.n(3))
		hi := lo + int64(r.n(4))
		id := 3*i + r.n(3) // sparse, unordered-looking IDs
		vars[i] = sym.NewInput(id, "", lo, hi)
		p.Domains = append(p.Domains, VarDomain{ID: id, Lo: lo, Hi: hi})
		if r.n(3) > 0 {
			p.Seed[id] = r.between(lo-2, hi+2) // may need clamping
		}
	}
	// Constants are drawn near the value of the other side at a random
	// point of the domains, so the mix has models as well as refutations.
	w := make(sym.MapAssignment, nv)
	for _, d := range p.Domains {
		w[d.ID] = r.between(d.Lo, d.Hi)
	}
	near := func(e sym.Expr) sym.Expr { return sym.NewConst(e.Eval(w) + r.between(-1, 1)) }
	v := func() *sym.Input { return vars[r.n(nv)] }
	// chain is diff's hash_line over the given bytes.
	chain := func(xs []*sym.Input) sym.Expr {
		m := sym.NewConst(int64(1) << (4 + r.n(21)))
		h := sym.NewBin(sym.OpMod, sym.Add(sym.NewConst(r.between(0, 200000)), xs[0]), m)
		for _, x := range xs[1:] {
			h = sym.NewBin(sym.OpMod, sym.Add(sym.Mul(h, sym.NewConst(31)), x), m)
		}
		return h
	}
	someVars := func() []*sym.Input {
		xs := make([]*sym.Input, 1+r.n(3))
		for i := range xs {
			xs[i] = v()
		}
		return xs
	}
	add := func(e sym.Expr) {
		p.Constraints = append(p.Constraints, sym.Constraint{E: e, Truth: r.n(4) > 0})
	}

	if nv >= 2 && r.n(3) == 0 {
		// The diff shape: the lines agree byte for byte, and their hash
		// buckets are asked to differ (or compare some other way).
		k := nv / 2
		a, b := vars[:k], vars[k:2*k]
		for i := range a {
			if r.n(2) == 0 {
				p.Constraints = append(p.Constraints, sym.Constraint{E: sym.Eq(a[i], b[i]), Truth: true})
			} else {
				p.Constraints = append(p.Constraints, sym.Constraint{E: sym.Ne(b[i], a[i]), Truth: false})
			}
		}
		mask := sym.NewConst(int64(1 + r.n(3)))
		p.Constraints = append(p.Constraints, sym.Constraint{
			E:     sym.NewBin(oracleCmps[r.n(len(oracleCmps))], sym.NewBin(sym.OpAnd, chain(a), mask), sym.NewBin(sym.OpAnd, chain(b), mask)),
			Truth: r.n(2) == 0,
		})
	}

	for nc := 1 + r.n(5); nc > 0; nc-- {
		switch r.n(5) {
		case 0: // variable equality
			x, y := v(), v()
			if r.n(2) == 0 {
				add(sym.Eq(x, y))
			} else {
				add(sym.Ne(x, y))
			}
		case 1, 2: // linear atom
			var e sym.Expr = sym.NewConst(r.between(-5, 5))
			for t := 1 + r.n(2); t > 0; t-- {
				e = sym.Add(e, sym.Mul(sym.NewConst(r.between(-3, 3)), v()))
			}
			add(sym.NewBin(oracleCmps[r.n(len(oracleCmps))], e, near(e)))
		case 3: // hash-chain atom
			bucket := sym.NewBin(sym.OpAnd, chain(someVars()), sym.NewConst(int64(1+r.n(7))))
			add(sym.NewBin(oracleCmps[r.n(len(oracleCmps))], bucket, near(bucket)))
		case 4: // other non-linear atom
			x, y := v(), v()
			var e sym.Expr
			switch r.n(3) {
			case 0:
				e = sym.Mul(x, y)
			case 1:
				e = sym.NewBin(sym.OpAnd, x, y)
			default:
				e = sym.NewBin(sym.OpMod, x, sym.NewConst(int64(2+r.n(5))))
			}
			add(sym.NewBin(oracleCmps[r.n(len(oracleCmps))], e, near(e)))
		}
	}

	var opts Options
	if r.n(3) == 0 {
		// A tight budget: the solver must give up honestly.
		opts = Options{MaxNodes: 1 + r.n(6), MaxWork: int64(1) << r.n(9), MaxValuesPerVar: 1 + r.n(3)}
	}
	return p, opts
}

// bruteForce reports whether any assignment over the declared domains
// satisfies every constraint.
func bruteForce(p Problem) bool {
	asn := make(sym.MapAssignment, len(p.Domains))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(p.Domains) {
			return sym.AllHold(p.Constraints, asn)
		}
		d := p.Domains[i]
		for x := d.Lo; x <= d.Hi; x++ {
			asn[d.ID] = x
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

// oracleOutcome classifies one checked call.
type oracleOutcome int

const (
	outSat oracleOutcome = iota
	outUnifyUnsat
	outPropagationUnsat
	outSearchUnsat
	outGaveUp
	numOutcomes
)

// oracleSolvers reuses one Solver per option set across checks (a Solver's
// cache tables dominate its cost; cached normal forms are pure, so sharing
// them cannot change an answer).
type oracleSolvers map[Options]*Solver

func (m oracleSolvers) get(opts Options) *Solver {
	s, ok := m[opts]
	if !ok {
		s = New(opts)
		m[opts] = s
	}
	s.ResetStats()
	return s
}

// checkOracle solves the seed's problem and checks the answer against
// enumeration.
func checkOracle(t *testing.T, solvers oracleSolvers, seed uint64) oracleOutcome {
	t.Helper()
	p, opts := genProblem(seed)
	s := solvers.get(opts)
	asn, ok := s.Solve(p)
	st := s.Stats()
	if st.Calls != 1 || st.Sat+st.Unsat+st.GaveUp != 1 {
		t.Fatalf("seed %d: outcome counters do not add up: %+v", seed, st)
	}
	if ok {
		for _, d := range p.Domains {
			if v := asn[d.ID]; v < d.Lo || v > d.Hi {
				t.Fatalf("seed %d: model %v leaves the domain of %d", seed, asn, d.ID)
			}
		}
		for _, c := range p.Constraints {
			if !c.Holds(asn) {
				t.Fatalf("seed %d: model %v violates %v", seed, asn, c)
			}
		}
		return outSat
	}
	if st.GaveUp == 1 {
		return outGaveUp
	}
	if bruteForce(p) {
		t.Fatalf("seed %d: claimed Unsat, but enumeration finds a model (opts %+v, stats %+v)\n%v", seed, opts, st, p.Constraints)
	}
	// Propagation runs to its fixed point whatever the budget, so only a
	// search that was cut short — budget spent or a candidate list
	// clipped — is no proof.
	if st.Nodes > 0 && (s.st.overBudget() || s.st.truncated) {
		t.Fatalf("seed %d: a search that ran out of budget was counted as Unsat: %+v", seed, st)
	}
	var u unifier
	nes := make([]*normEntry, len(p.Constraints))
	for i, c := range p.Constraints {
		nes[i] = s.normalized(c)
	}
	if _, byUnify := u.provesUnsat(p.Constraints, nes); byUnify {
		return outUnifyUnsat
	}
	if st.Nodes == 0 {
		return outPropagationUnsat
	}
	return outSearchUnsat
}

// FuzzSolverOracle is the open-ended oracle fuzzer. The input is a
// generator seed, so every mutation is a well-formed problem and coverage
// feedback steers the seed space.
func FuzzSolverOracle(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 1337, 99991, 1 << 32, 0xDEADBEEF} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkOracle(t, oracleSolvers{}, seed)
	})
}

// TestSolverOracleFixedSeeds is the deterministic CI slice of the fuzz
// space. It also checks the slice is not vacuous: every outcome — a model,
// each kind of proof, a give-up — occurs.
func TestSolverOracleFixedSeeds(t *testing.T) {
	var seen [numOutcomes]int
	solvers := oracleSolvers{}
	for seed := uint64(0); seed < 4000; seed++ {
		seen[checkOracle(t, solvers, seed)]++
	}
	t.Logf("sat %d; unsat by unification %d, by propagation %d, by search %d; gave up %d",
		seen[outSat], seen[outUnifyUnsat], seen[outPropagationUnsat], seen[outSearchUnsat], seen[outGaveUp])
	for o, n := range seen {
		if n == 0 {
			t.Errorf("outcome %d never occurred: the generator no longer covers it", o)
		}
	}
}
