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

// searchedGiveUp is the diff give-up with the byte equalities scaled by
// two: equivalent on bytes, but not the x - y == 0 shape unification reads,
// so search runs until the work budget is spent.
func searchedGiveUp() Problem {
	p := diffGiveUp()
	for i, c := range p.Constraints {
		if bin, ok := c.E.(*sym.Bin); ok && bin.Op == sym.OpNe && !c.Truth {
			two := sym.NewConst(2)
			p.Constraints[i] = sym.Constraint{E: sym.Eq(sym.Mul(bin.L, two), sym.Mul(bin.R, two)), Truth: true}
		}
	}
	return p
}

// followedPath is the solve a replay makes when it follows a logged path:
// a uServer request line of 72 bytes, each checked non-NUL, printable and
// not a line end, the method and the path's first bytes matched against
// constants, and neighbouring bytes compared as a tokenizer does (320
// atoms). The seed holds the request of the previous run, which took the
// other side of a late branch (byte 58, the space before "Agent", was an
// 'x'), so propagation fixes that byte and the search descends once,
// assigning each byte its seed value.
func followedPath() Problem {
	const n, late = 72, 58
	req := "GET /index.html HTTP/1.0 Host: www.example.org Accept: */* Agent: pathlog/1.0"
	p := Problem{Domains: byteDomains(n), Seed: sym.MapAssignment{}}
	add := func(e sym.Expr, truth bool) {
		p.Constraints = append(p.Constraints, sym.Constraint{E: e, Truth: truth})
	}
	for i := 0; i < n; i++ {
		p.Seed[i] = int64(req[i])
		add(sym.Eq(in(i), sym.Zero), false)
		add(sym.Lt(in(i), sym.NewConst(32)), false)
		add(sym.NewBin(sym.OpGt, in(i), sym.NewConst(126)), false)
		add(sym.Eq(in(i), sym.NewConst('\n')), false)
	}
	for i, c := range []byte("GET /index") {
		add(sym.Eq(in(i), sym.NewConst(int64(c))), true)
	}
	for i := 10; len(p.Constraints) < 319; i += 2 {
		add(sym.Eq(sym.Sub(in(i), in(i+1)), sym.Zero), req[i] == req[i+1])
	}
	p.Seed[late] = 'x'
	add(sym.Eq(in(late), sym.NewConst(int64(req[late]))), true)
	return p
}

// BenchmarkSolve measures one Solve call per outcome of the solve pipeline,
// on diff-shaped problems with warm normalization caches (the steady state of
// a search), and a fresh Solver's first call on a coreutils-sized path
// condition (cold, the fixed cost of a search that starts without a
// recycled Solver). followed-path is a replay's follow-the-log solve. It
// reports ns/call and work/call, the evaluation effort
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
		{"gave-up", searchedGiveUp(), gaveUp, true},
		{"followed-path", followedPath(), sat, true},
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
