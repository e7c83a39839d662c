package world

import (
	"fmt"
	"math/rand"
	"slices"
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

// TestRegistryMatchesReference runs random interleavings of ByteVar,
// BoundedByteVar and SyscallVar against the map model. The coordinates cover
// every laid-out slot of the declared streams, the argv terminator offset
// Len, offsets past the laid-out block and streams the spec does not
// declare. Each variable must get the model's ID, domain and name, and the
// registry must agree with the model on Get, Len, Domains, the rendering
// of an expression over the variables, and the bytes a symbolic and a
// concrete world materialize.
func TestRegistryMatchesReference(t *testing.T) {
	sp := spec()
	streams := []struct {
		name string
		len  int
	}{
		{"arg0", sp.Args[0].Len},
		{"file:f.txt", sp.Files[0].Stream.Len},
		{"conn0", sp.Conns[0].Stream.Len},
		{"file:undeclared", 4},
		{"conn9", 0},
	}
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		reg := NewRegistry(sp)
		if seed%10 == 0 {
			reg = NewRegistry(nil) // nothing laid out: every table grows
		}
		model := &refRegistry{byKey: make(map[string]*sym.Input)}
		var got []*sym.Input
		for op := 0; op < 1+r.Intn(120); op++ {
			lo, hi := r.Int63n(300)-20, r.Int63n(300)-20
			var in, want *sym.Input
			switch r.Intn(5) {
			case 0, 1, 2:
				st := streams[r.Intn(len(streams))]
				// Mostly inside the block, often the terminator, sometimes
				// past the block.
				off := int64(r.Intn(st.len + 1))
				if r.Intn(4) == 0 {
					off = int64(st.len + r.Intn(12))
				}
				key := fmt.Sprintf("%s:%d", st.name, off)
				if r.Intn(2) == 0 {
					in, want = reg.ByteVar(st.name, off), model.get(key, 0, 255)
				} else {
					in, want = reg.BoundedByteVar(st.name, off, lo, hi), model.get(key, lo, hi)
				}
			default:
				kind := []string{"read", "select:0:cand", "select:1:cand"}[r.Intn(3)]
				seq := r.Intn(4)
				key := fmt.Sprintf("sys:%s:%d", kind, seq)
				in, want = reg.SyscallVar(kind, seq, lo, hi), model.get(key, lo, hi)
			}
			if in.ID != want.ID || in.Lo != want.Lo || in.Hi != want.Hi || in.String() != want.String() {
				t.Fatalf("seed %d op %d: registry gave %s id=%d [%d,%d], model %s id=%d [%d,%d]",
					seed, op, in, in.ID, in.Lo, in.Hi, want, want.ID, want.Lo, want.Hi)
			}
			got = append(got, in)
		}

		if reg.Len() != len(model.vars) {
			t.Fatalf("seed %d: Len %d, model %d", seed, reg.Len(), len(model.vars))
		}
		for _, in := range got {
			if reg.Get(in.ID) != in {
				t.Fatalf("seed %d: Get(%d) is not the variable first returned", seed, in.ID)
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
		symbolic := NewWorld(sp, reg, nil)
		for run := 0; run < 3; run++ {
			asn := sym.MapAssignment{}
			for _, in := range got {
				if r.Intn(2) == 0 {
					asn[in.ID] = r.Int63n(256)
				}
			}
			symbolic.Rebind(asn)
			concrete := NewWorld(sp, reg, asn)
			concrete.Symbolic = false
			sp.eachStream(func(st Stream) {
				if a, b := symbolic.MaterializeStream(st), concrete.MaterializeStream(st); string(a) != string(b) {
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
