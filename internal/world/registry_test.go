package world

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pathlog/internal/solver"
	"pathlog/internal/sym"
)

// refRegistry is the plain-map model of a Registry: one variable per key,
// IDs in first-use order, the domain fixed on first use, the name the key.
type refRegistry struct {
	byKey map[string]*sym.Input
	vars  []*sym.Input
}

func (m *refRegistry) get(key string, lo, hi int64) *sym.Input {
	if v, ok := m.byKey[key]; ok {
		return v
	}
	v := sym.NewInput(len(m.vars), key, lo, hi)
	m.byKey[key] = v
	m.vars = append(m.vars, v)
	return v
}

// wideSpec is spec() with two more streams, which a registry over spec()
// does not lay out: its tables for them grow on demand.
func wideSpec() *Spec {
	sp := spec()
	sp.Files = append(sp.Files, FileSpec("undeclared", "", 4))
	sp.Conns = append(sp.Conns, ConnSpec(9, "", 0, 0))
	return sp
}

// runTouch is one coordinate a run touches, with the domain it asks for: a
// byte of a stream, or (stream == "") a syscall result.
type runTouch struct {
	stream string
	off    int64
	kind   string
	seq    int
	lo, hi int64
}

// key is the touch's coordinate in the reference model.
func (c runTouch) key() string {
	if c.stream == "" {
		return fmt.Sprintf("sys:%s:%d", c.kind, c.seq)
	}
	return fmt.Sprintf("%s:%d", c.stream, c.off)
}

// touch makes the touch in run w, whose spec declares the stream.
func (c runTouch) touch(w *World) *sym.Input {
	if c.stream == "" {
		return w.syscallVar(c.kind, c.seq, c.lo, c.hi)
	}
	_, i := w.declared(c.stream)
	return w.byteVar(i, c.stream, c.off, c.lo, c.hi)
}

// randomTouch draws a coordinate of wideSpec with a random domain: a byte
// mostly inside its stream's laid-out slots, often at the argv terminator
// offset Len, sometimes past the slots, in a stream spec() declares or one
// only wideSpec declares; or a syscall result.
func randomTouch(r *rand.Rand) runTouch {
	c := runTouch{lo: r.Int63n(300) - 20, hi: r.Int63n(300) - 20}
	if r.Intn(4) == 0 {
		c.kind = []string{"read", "select:0:cand", "select:1:cand"}[r.Intn(3)]
		c.seq = r.Intn(4)
		return c
	}
	var streams []Stream
	wideSpec().eachStream(func(st Stream) { streams = append(streams, st) })
	st := streams[r.Intn(len(streams))]
	c.stream, c.off = st.Name, int64(r.Intn(st.Len+1))
	if r.Intn(5) == 0 {
		c.off = int64(st.Len + r.Intn(12))
	}
	return c
}

// newRegistry returns a registry over spec(), or on every fifth seed one
// over no spec, which lays nothing out: every table grows.
func newRegistry(seed int64) *Registry {
	if seed%5 == 0 {
		return NewRegistry(nil)
	}
	return NewRegistry(spec())
}

// TestRegistryMatchesReference runs runs one after another over one world,
// each touching random coordinates with random domains, against the map
// model, which numbers each committed run's touches at first touch. Each
// variable must get the model's ID, domain and name once its run commits;
// a discarded run's new variables stay unnumbered; and the registry must
// agree with the model on Get, Len, Domains, the rendering of an expression
// over the variables, and the bytes a symbolic and a concrete world
// materialize.
func TestRegistryMatchesReference(t *testing.T) {
	sp := wideSpec()
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		reg := newRegistry(seed)
		model := &refRegistry{byKey: make(map[string]*sym.Input)}
		w := NewWorld(sp, reg, nil)
		var got []*sym.Input
		for run := 0; run < 1+r.Intn(6); run++ {
			w.Rebind(nil)
			var touches []runTouch
			var vars []*sym.Input
			for op := 0; op < r.Intn(40); op++ {
				c := randomTouch(r)
				touches = append(touches, c)
				vars = append(vars, c.touch(w))
			}
			if r.Intn(5) == 0 {
				w.Discard()
				for i, c := range touches {
					if _, ok := model.byKey[c.key()]; !ok && vars[i].ID != -1 {
						t.Fatalf("seed %d run %d: discarded %s has ID %d", seed, run, c.key(), vars[i].ID)
					}
				}
				continue
			}
			w.Commit()
			for i, c := range touches {
				in, want := vars[i], model.get(c.key(), c.lo, c.hi)
				if in.ID != want.ID || in.Lo != want.Lo || in.Hi != want.Hi || in.String() != want.String() {
					t.Fatalf("seed %d run %d: registry gave %s id=%d [%d,%d], model %s id=%d [%d,%d]",
						seed, run, in, in.ID, in.Lo, in.Hi, want, want.ID, want.Lo, want.Hi)
				}
			}
			got = append(got, vars...)
		}

		if reg.Len() != len(model.vars) {
			t.Fatalf("seed %d: Len %d, model %d", seed, reg.Len(), len(model.vars))
		}
		for _, in := range got {
			if reg.Get(in.ID) != in {
				t.Fatalf("seed %d: Get(%d) is not the variable the runs saw", seed, in.ID)
			}
		}
		var ids []int
		for id := range model.vars {
			if r.Intn(2) == 0 {
				ids = append(ids, id)
			}
		}
		var wantDoms []solver.VarDomain
		for _, id := range ids {
			v := model.vars[id]
			wantDoms = append(wantDoms, solver.VarDomain{ID: id, Lo: v.Lo, Hi: v.Hi})
		}
		if d := reg.Domains(ids, nil); !slices.Equal(d, wantDoms) {
			t.Fatalf("seed %d: Domains %v, model %v", seed, d, wantDoms)
		}
		if e, w := exprOver(got), exprOver(modelOf(model, got)); sym.Format(e) != sym.Format(w) {
			t.Fatalf("seed %d: expression renders\n%s\nmodel\n%s", seed, sym.Format(e), sym.Format(w))
		}

		// A symbolic world, rebound run after run, must materialize what a
		// fresh concrete world reads byte by byte.
		for run := 0; run < 3; run++ {
			asn := sym.MapAssignment{}
			for _, in := range got {
				if r.Intn(2) == 0 {
					asn[in.ID] = r.Int63n(256)
				}
			}
			w.Rebind(asn)
			concrete := NewWorld(sp, reg, asn)
			concrete.Symbolic = false
			sp.eachStream(func(st Stream) {
				if a, b := w.MaterializeStream(st), concrete.MaterializeStream(st); string(a) != string(b) {
					t.Fatalf("seed %d run %d: %s materializes %q symbolically, %q byte by byte",
						seed, run, st.Name, a, b)
				}
			})
		}
	}
}

// modelOf maps registry variables to the model's variables of the same ID.
func modelOf(m *refRegistry, vars []*sym.Input) []*sym.Input {
	out := make([]*sym.Input, len(vars))
	for i, v := range vars {
		out[i] = m.vars[v.ID]
	}
	return out
}

// exprOver folds the variables into one expression the way constraints mix
// them: sums, comparisons against constants and conjunctions.
func exprOver(vars []*sym.Input) sym.Expr {
	var e sym.Expr = sym.Zero
	for i, v := range vars {
		switch i % 3 {
		case 0:
			e = sym.NewBin(sym.OpAdd, e, v)
		case 1:
			e = sym.NewBin(sym.OpAnd, e, sym.NewBin(sym.OpEq, v, sym.NewConst(int64(i))))
		default:
			e = sym.NewBin(sym.OpLt, v, e)
		}
	}
	return e
}

// checkMaterialized materializes every stream of sp under an assignment
// binding each ID numbered so far to a byte of its own, and reports the
// first byte that does not read as its bound value (a numbered variable
// of that snapshot) or else its seed.
func checkMaterialized(sp *Spec, reg *Registry) string {
	n := reg.Len()
	asn := sym.MapAssignment{}
	for id := 0; id < n; id++ {
		asn[id] = int64('a' + id%26)
	}
	w := NewWorld(sp, reg, asn)
	var err string
	sp.eachStream(func(st Stream) {
		out := w.MaterializeStream(st)
		for off, b := range out {
			// IDs never change and later commits take IDs >= n, so a byte
			// numbered now reads as bound exactly when its ID is below n.
			want := byte(0)
			if off < len(st.Seed) {
				want = st.Seed[off]
			}
			if in, ok := reg.lookupByte(st.Name, int64(off)); ok && in.ID < n {
				want = byte(asn[in.ID])
			}
			if b != want && err == "" {
				err = fmt.Sprintf("%s byte %d materialized %q, want %q", st.Name, off, b, want)
			}
		}
	})
	return err
}

// TestRegistryConcurrentUse holds a Registry to its "safe for concurrent
// use" claim: runs on several goroutines touch every coordinate (inside the
// laid-out block, past it, in streams the registry's spec does not declare,
// and syscall results) in orders of their own, materialize streams between
// touches and commit as each ends, so commits land between other runs'
// touches and race each other. Every coordinate must end with one ID
// shared by every run, IDs must be dense over 0..n-1, and each variable's
// domain must be the one a serial registry gives it.
func TestRegistryConcurrentUse(t *testing.T) {
	sp := wideSpec()
	var coords []runTouch
	sp.eachStream(func(st Stream) {
		for off := 0; off <= st.Len+2; off++ {
			// Even offsets take the byte default, odd ones a domain of
			// their own: each coordinate has one domain, whichever run
			// numbers it.
			c := runTouch{stream: st.Name, off: int64(off), hi: 255}
			if off%2 == 1 {
				c.lo, c.hi = int64(off%5), int64(200+off)
			}
			coords = append(coords, c)
		}
	})
	for seq := 0; seq < 4; seq++ {
		for _, kind := range []string{"read", "select:0:cand"} {
			coords = append(coords, runTouch{kind: kind, seq: seq, lo: int64(seq), hi: int64(10 + seq)})
		}
	}

	serial := NewWorld(sp, NewRegistry(spec()), nil)
	want := make([]*sym.Input, len(coords))
	for i, c := range coords {
		want[i] = c.touch(serial)
	}
	serial.Commit()

	const workers = 4
	reg := NewRegistry(spec())
	got := make([][]*sym.Input, workers)
	errs := make([]string, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g + 1)))
			vars := make([]*sym.Input, len(coords))
			w := NewWorld(sp, reg, nil)
			for n, i := range r.Perm(len(coords)) {
				vars[i] = coords[i].touch(w)
				if n%7 == 0 && errs[g] == "" {
					if e := checkMaterialized(sp, reg); e != "" {
						errs[g] = fmt.Sprintf("goroutine %d: %s", g, e)
					}
				}
			}
			w.Commit()
			got[g] = vars
		}(g)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Fatal(e)
		}
	}

	if reg.Len() != len(coords) {
		t.Fatalf("Len %d, want one variable per coordinate (%d)", reg.Len(), len(coords))
	}
	seen := make([]bool, len(coords))
	for i, c := range coords {
		v := got[0][i]
		for g := 1; g < workers; g++ {
			if u := got[g][i]; u.ID != v.ID || u.Lo != v.Lo || u.Hi != v.Hi {
				t.Fatalf("%s: goroutines 0 and %d got different variables (%s id=%d, %s id=%d)",
					c.key(), g, v, v.ID, u, u.ID)
			}
		}
		if v.ID < 0 || v.ID >= len(coords) || seen[v.ID] {
			t.Fatalf("%s: ID %d is out of 0..%d or taken twice", c.key(), v.ID, len(coords)-1)
		}
		seen[v.ID] = true
		if n := reg.Get(v.ID); n.String() != v.String() || n.Lo != v.Lo || n.Hi != v.Hi {
			t.Fatalf("%s: Get(%d) is %s", c.key(), v.ID, n)
		}
		if v.String() != want[i].String() || v.Lo != want[i].Lo || v.Hi != want[i].Hi {
			t.Fatalf("%s: got %s [%d,%d], serial registry %s [%d,%d]",
				c.key(), v, v.Lo, v.Hi, want[i], want[i].Lo, want[i].Hi)
		}
	}
	if e := checkMaterialized(sp, reg); e != "" {
		t.Fatal(e)
	}
}

// TestRegistryCommitOrder holds commit-time numbering to the numbering at
// first touch it replaced. In each round, goroutines each execute one run
// over one registry at once, touching random coordinates with random
// domains (randomTouch) and materializing streams between touches. The runs
// commit in a fixed order, each as soon as it has ended and the run before
// it has committed; some are discarded instead. A run touches the second
// half of its coordinates only once the run before it has committed, so
// commits land between a run's touches. The reference numbers the
// committed runs' touches at first touch, one run after another in that
// order. Every variable must end with the reference's ID, domain and name,
// a run must see one variable per coordinate, an unnumbered variable must
// never show in materialized bytes, and Get, Len and Domains must agree
// with the reference after every round.
func TestRegistryCommitOrder(t *testing.T) {
	sp := wideSpec()
	randomRun := func(r *rand.Rand) []runTouch {
		run := make([]runTouch, 2+r.Intn(40))
		for i := range run {
			run[i] = randomTouch(r)
		}
		// Touch a few coordinates of the first half again in the second.
		for k := r.Intn(4); k > 0; k-- {
			run = append(run, run[r.Intn(len(run)/2)])
		}
		return run
	}

	const workers = 4
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		reg := newRegistry(seed)
		model := &refRegistry{byKey: make(map[string]*sym.Input)}
		var all []*sym.Input // every committed run's variables
		var allKeys []string
		for round := 0; round < 4; round++ {
			runs := make([][]runTouch, workers)
			discard := make([]bool, workers)
			for g := range runs {
				runs[g] = randomRun(r)
				discard[g] = r.Intn(5) == 0
			}
			got := make([][]*sym.Input, workers)
			errs := make([]string, workers)
			// committed[g] closes once run g has committed or been
			// discarded.
			committed := make([]chan struct{}, workers)
			for g := range committed {
				committed[g] = make(chan struct{})
			}
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					defer close(committed[g])
					w := NewWorld(sp, reg, nil)
					seen := map[string]*sym.Input{}
					for i, c := range runs[g] {
						if i == len(runs[g])/2 && g > 0 {
							<-committed[g-1]
						}
						v := c.touch(w)
						if prev, ok := seen[c.key()]; ok && prev != v && errs[g] == "" {
							errs[g] = fmt.Sprintf("round %d run %d: %s touched twice gave two variables", round, g, c.key())
						}
						seen[c.key()] = v
						got[g] = append(got[g], v)
						if i%5 == 0 && errs[g] == "" {
							if e := checkMaterialized(sp, reg); e != "" {
								errs[g] = fmt.Sprintf("round %d run %d: %s", round, g, e)
							}
						}
					}
					if g > 0 {
						<-committed[g-1]
					}
					if discard[g] {
						w.Discard()
					} else {
						w.Commit()
					}
				}(g)
			}
			wg.Wait()
			for _, e := range errs {
				if e != "" {
					t.Fatalf("seed %d: %s", seed, e)
				}
			}
			for g := range runs {
				if discard[g] {
					for i, v := range got[g] {
						if _, ok := model.byKey[runs[g][i].key()]; !ok && v.ID != -1 {
							t.Fatalf("seed %d round %d: discarded run %d's new %s has ID %d", seed, round, g, runs[g][i].key(), v.ID)
						}
					}
					continue
				}
				for i, c := range runs[g] {
					model.get(c.key(), c.lo, c.hi)
					all = append(all, got[g][i])
					allKeys = append(allKeys, c.key())
				}
			}

			for i, v := range all {
				want := model.byKey[allKeys[i]]
				if v.ID != want.ID || v.Lo != want.Lo || v.Hi != want.Hi || v.String() != want.String() {
					t.Fatalf("seed %d round %d: %s is %s id=%d [%d,%d], reference %s id=%d [%d,%d]",
						seed, round, allKeys[i], v, v.ID, v.Lo, v.Hi, want, want.ID, want.Lo, want.Hi)
				}
				if g := reg.Get(v.ID); g == nil || g.ID != v.ID || g.Lo != v.Lo || g.Hi != v.Hi || g.String() != v.String() {
					t.Fatalf("seed %d round %d: Get(%d) is %v, not %s", seed, round, v.ID, g, v)
				}
			}
			if reg.Len() != len(model.vars) {
				t.Fatalf("seed %d round %d: Len %d, reference %d", seed, round, reg.Len(), len(model.vars))
			}
			var ids []int
			var wantDoms []solver.VarDomain
			for id, v := range model.vars {
				if r.Intn(2) == 0 {
					ids = append(ids, id)
					wantDoms = append(wantDoms, solver.VarDomain{ID: id, Lo: v.Lo, Hi: v.Hi})
				}
			}
			if d := reg.Domains(ids, nil); !slices.Equal(d, wantDoms) {
				t.Fatalf("seed %d round %d: Domains %v, reference %v", seed, round, d, wantDoms)
			}
		}
	}
}
