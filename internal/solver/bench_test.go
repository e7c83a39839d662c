package solver

import (
	"testing"

	"pathlog/internal/sym"
)

// benchLines returns the diff child-problem prefix over two 7-byte lines
// (see diffGiveUp) without its negated hash atom, and a seed assigning
// line a and line b the given bytes.
func benchLines(a, b string) Problem {
	p := diffGiveUp()
	p.Constraints = p.Constraints[:len(p.Constraints)-1]
	for k := 0; k < 7; k++ {
		p.Seed[p.Domains[k].ID] = int64(a[k])
		p.Seed[p.Domains[7+k].ID] = int64(b[k])
	}
	return p
}

// coreutilsPath is a path condition of the size a coreutils replay solves
// (mkdir's and paste's are 24 to 36 constraints): eleven argument bytes
// that are non-NUL octal digits, then a negated "the twelfth is non-NUL"
// that the seed violates, so the call propagates and searches.
func coreutilsPath() Problem {
	p := Problem{Domains: byteDomains(12), Seed: sym.MapAssignment{}}
	for i := 0; i < 11; i++ {
		p.Seed[i] = '1'
		p.Constraints = append(p.Constraints,
			sym.Constraint{E: sym.Ne(in(i), sym.NewConst(0)), Truth: true},
			sym.Constraint{E: sym.Lt(in(i), sym.NewConst('0')), Truth: false},
			sym.Constraint{E: sym.Le(in(i), sym.NewConst('7')), Truth: true})
	}
	p.Seed[11] = '5'
	p.Constraints = append(p.Constraints, sym.Constraint{E: sym.Ne(in(11), sym.NewConst(0)), Truth: false})
	return p
}

// BenchmarkSolve measures one Solve call per outcome of the solve pipeline,
// on diff-shaped problems with warm normalization caches (the steady state of
// a search), and a fresh Solver's first call on a coreutils-sized path
// condition (cold, the fixed cost of a search that starts without a
// recycled Solver). It reports ns/call and work/call, the evaluation effort
// the call charged.
func BenchmarkSolve(b *testing.B) {
	type outcome int
	const (
		sat outcome = iota
		unsat
		gaveUp
	)
	// seed-sat: the seed already satisfies the prefix.
	seedSat := benchLines("abcdefg", "abcdefg")
	// searched-sat: the seed's lines differ in the last byte; propagation
	// and search repair it.
	searchedSat := benchLines("abcdefg", "abcdefh")
	// propagation-unsat: the prefix plus a_0 < 9, which its !(a_0 < 9)
	// refutes.
	propUnsat := benchLines("abcdefg", "abcdefh")
	a0 := diffLine("a.txt", 23, 1)[0]
	propUnsat.Constraints = append(propUnsat.Constraints, sym.Constraint{E: sym.Lt(a0, sym.NewConst(9)), Truth: true})
	// gave-up: the diff give-up with the byte equalities scaled by two —
	// equivalent on bytes, but not the x - y == 0 shape unification reads,
	// so search runs until the work budget is spent.
	gave := diffGiveUp()
	for i, c := range gave.Constraints {
		if bin, ok := c.E.(*sym.Bin); ok && bin.Op == sym.OpNe && !c.Truth {
			two := sym.NewConst(2)
			gave.Constraints[i] = sym.Constraint{E: sym.Eq(sym.Mul(bin.L, two), sym.Mul(bin.R, two)), Truth: true}
		}
	}

	cases := []struct {
		name  string
		p     Problem
		want  outcome
		nodes bool // whether the outcome needs a search
	}{
		{"seed-sat", seedSat, sat, false},
		{"searched-sat", searchedSat, sat, true},
		{"propagation-unsat", propUnsat, unsat, false},
		{"unification-unsat", diffGiveUp(), unsat, false},
		{"gave-up", gave, gaveUp, true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			s := New(Options{})
			s.Solve(tc.p) // warm the normalization caches; check the outcome
			st := s.Stats()
			got := unsat
			switch {
			case st.Sat == 1:
				got = sat
			case st.GaveUp == 1:
				got = gaveUp
			}
			if got != tc.want || (st.Nodes > 0) != tc.nodes {
				b.Fatalf("%s: unexpected outcome %+v", tc.name, st)
			}
			s.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Solve(tc.p)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/call")
			b.ReportMetric(float64(s.Stats().Work)/float64(b.N), "work/call")
		})
	}
	b.Run("cold", func(b *testing.B) {
		p := coreutilsPath()
		var work int64
		for i := 0; i < b.N; i++ {
			s := New(Options{})
			if _, ok := s.Solve(p); !ok || s.Stats().Nodes == 0 {
				b.Fatalf("cold: unexpected outcome %+v", s.Stats())
			}
			work += s.Stats().Work
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/call")
		b.ReportMetric(float64(work)/float64(b.N), "work/call")
	})
}
