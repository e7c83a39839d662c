package world

import (
	"testing"

	"pathlog/internal/sym"
)

// mark touches byte (stream, off) in w's run.
func mark(w *World, stream string, off int64) *sym.Input {
	return w.MarkByte(stream, off).(*sym.Input)
}

// readVar touches the seq-th read count in w's run, which models read
// results, and returns its variable.
func readVar(w *World, seq int, max int64) *sym.Input {
	w.ReadCount("conn0", seq, max)
	return w.SyscallExpr("read", seq).(*sym.Input)
}

func TestRegistryStableIDs(t *testing.T) {
	w := newWorld(spec(), nil)
	r := w.Reg
	a := mark(w, "arg0", 0)
	b := mark(w, "arg0", 1)
	c := mark(w, "conn0", 0)
	if got := mark(w, "arg0", 0); got != a {
		t.Fatal("same coordinate must return the same variable")
	}
	if r.Len() != 0 || a.ID != -1 {
		t.Fatalf("numbered before the run committed: len %d, id %d", r.Len(), a.ID)
	}
	w.Commit()
	if a.ID != 0 || b.ID != 1 || c.ID != 2 {
		t.Fatalf("IDs %d %d %d, want touch order 0 1 2", a.ID, b.ID, c.ID)
	}
	if r.Len() != 3 {
		t.Fatalf("len: %d", r.Len())
	}
	if r.Get(a.ID) != a {
		t.Fatal("Get by ID")
	}
	if r.Get(-1) != nil || r.Get(99) != nil {
		t.Fatal("out-of-range Get must return nil")
	}
	// The next run sees the numbered variable.
	w.Rebind(nil)
	if got := mark(w, "arg0", 0); got != a {
		t.Fatal("a committed coordinate must return its numbered variable")
	}
}

func TestRegistrySyscallVars(t *testing.T) {
	w := newWorld(spec(), nil)
	w.ModelSyscalls = true
	v := readVar(w, 3, 64)
	if v.Lo != -1 || v.Hi != 64 {
		t.Fatalf("domain: [%d,%d]", v.Lo, v.Hi)
	}
	// Touching it again keeps the original domain.
	if v2 := readVar(w, 3, 8); v2 != v {
		t.Fatal("syscall var must be stable per (kind, seq)")
	}
	w.Commit()
	if got, ok := w.Reg.lookup("sys:read:3"); !ok || got != v {
		t.Fatal("lookup by key")
	}
	// A later run that asks for another domain gets the numbered one.
	w.Rebind(nil)
	if v2 := readVar(w, 3, 8); v2 != v || v2.Hi != 64 {
		t.Fatalf("later run got %s [%d,%d]", v2, v2.Lo, v2.Hi)
	}
}

func TestRegistryDomains(t *testing.T) {
	w := newWorld(spec(), nil)
	w.ModelSyscalls = true
	a := mark(w, "arg0", 0)
	s := readVar(w, 0, 10)
	w.Commit()
	d := w.Reg.Domains([]int{a.ID, s.ID}, nil)
	if len(d) != 2 || d[0].ID != a.ID || d[0].Lo != 0 || d[0].Hi != 255 {
		t.Fatalf("byte domain: %+v", d)
	}
	if d[1].ID != s.ID || d[1].Lo != -1 || d[1].Hi != 10 {
		t.Fatalf("syscall domain: %+v", d)
	}
}

// newWorld binds sp to a fresh registry over it.
func newWorld(sp *Spec, asn sym.MapAssignment) *World {
	return NewWorld(sp, NewRegistry(sp), asn)
}

func spec() *Spec {
	return &Spec{
		Args:  []Stream{ArgSpec(0, "hi", 6)},
		Files: []FileInput{FileSpec("f.txt", "data", 8)},
		Conns: []ConnInput{ConnSpec(0, "GET", 8, 0)},
	}
}

func TestMaterializeSeeds(t *testing.T) {
	w := newWorld(spec(), nil)
	arg := w.MaterializeStream(w.Spec.Args[0])
	if string(arg) != "hi\x00\x00\x00\x00" {
		t.Fatalf("arg: %q", arg)
	}
	file := w.MaterializeStream(w.Spec.Files[0].Stream)
	if string(file) != "data\x00\x00\x00\x00" {
		t.Fatalf("file: %q", file)
	}
}

func TestMaterializeWithAssignment(t *testing.T) {
	reg := NewRegistry(spec())
	run := NewWorld(spec(), reg, nil)
	v0 := mark(run, "arg0", 0)
	v3 := mark(run, "arg0", 3) // beyond the seed
	run.Commit()
	asn := sym.MapAssignment{v0.ID: 'H', v3.ID: '!'}
	w := NewWorld(spec(), reg, asn)
	arg := w.MaterializeStream(w.Spec.Args[0])
	if string(arg) != "Hi\x00!\x00\x00" {
		t.Fatalf("arg: %q", arg)
	}
}

func TestKernelConfigShape(t *testing.T) {
	sp := spec()
	sp.ListenPort = 8080
	sp.CrashSignalAfterConns = true
	sp.SymbolicFS = true
	w := newWorld(sp, nil)
	cfg := w.KernelConfig()
	if len(cfg.Args) != 1 || len(cfg.Files) != 1 || len(cfg.Conns) != 1 {
		t.Fatalf("cfg: %+v", cfg)
	}
	if cfg.ListenPort != 8080 || !cfg.CrashSignalAfterConns || !cfg.SymbolicFS {
		t.Fatal("workload fields lost")
	}
	if len(cfg.FileOrder) != 1 || cfg.FileOrder[0] != "f.txt" {
		t.Fatalf("file order: %v", cfg.FileOrder)
	}
	// Args are untrimmed: full symbolic region.
	if len(cfg.Args[0]) != 6 {
		t.Fatalf("arg length: %d", len(cfg.Args[0]))
	}
}

func TestMarkByteOnlyDeclaredStreams(t *testing.T) {
	w := newWorld(spec(), nil)
	if w.MarkByte("arg0", 0) == nil {
		t.Error("declared stream must be symbolic")
	}
	if w.MarkByte("file:f.txt", 2) == nil {
		t.Error("declared file must be symbolic")
	}
	if w.MarkByte("conn0", 1) == nil {
		t.Error("declared conn must be symbolic")
	}
	if w.MarkByte("file:other", 0) != nil {
		t.Error("undeclared stream must be concrete")
	}
	w.Symbolic = false
	if w.MarkByte("arg0", 0) != nil {
		t.Error("non-symbolic world must not mark")
	}
}

func TestReadCountModel(t *testing.T) {
	w := newWorld(spec(), nil)
	reg := w.Reg
	w.ModelSyscalls = true
	// Unbound: seed is the maximum (the paper's read model).
	if got := w.ReadCount("conn0", 0, 5); got != 5 {
		t.Fatalf("seed count: %d", got)
	}
	if _, ok := reg.lookup("sys:read:0"); ok {
		t.Fatal("read var numbered before its run committed")
	}
	w.Commit()
	v, ok := reg.lookup("sys:read:0")
	if !ok {
		t.Fatal("read var not registered")
	}
	if v.Lo != -1 || v.Hi != 5 {
		t.Fatalf("domain: [%d,%d]", v.Lo, v.Hi)
	}
	// Bound: assignment wins, clamped to max.
	w.Asn[v.ID] = 3
	if got := w.ReadCount("conn0", 0, 5); got != 3 {
		t.Fatalf("bound count: %d", got)
	}
	w.Asn[v.ID] = 99
	if got := w.ReadCount("conn0", 0, 5); got != 5 {
		t.Fatalf("clamped count: %d", got)
	}
	if w.SyscallExpr("read", 0) == nil {
		t.Fatal("read expr missing in model mode")
	}
	w.ModelSyscalls = false
	if w.SyscallExpr("read", 0) != nil {
		t.Fatal("read expr must be nil outside model mode")
	}
}

func TestSelectReadyModel(t *testing.T) {
	w := newWorld(spec(), nil)
	reg := w.Reg
	w.ModelSyscalls = true
	cands := []int{4, 5, 6}
	ready := w.SelectReady(0, cands)
	if len(ready) != 3 {
		t.Fatalf("seed readiness: %v", ready)
	}
	expr := w.SyscallExpr("select", 0)
	if expr == nil {
		t.Fatal("select count expr missing")
	}
	// The expression is the sum of the three bits; all seeded to 1.
	if got := expr.Eval(sym.MapAssignment{}); got != 0 {
		// Unbound variables evaluate to 0 under an empty assignment — the
		// expression reflects bound values only.
		_ = got
	}
	// Turning one bit off drops the fd.
	w.Commit()
	bit, ok := reg.lookup("sys:select:0:cand:1")
	if !ok {
		t.Fatal("bit var missing")
	}
	w.Asn[bit.ID] = 0
	ready = w.SelectReady(0, cands)
	if len(ready) != 2 || ready[0] != 4 || ready[1] != 6 {
		t.Fatalf("readiness with bit off: %v", ready)
	}
	if w.SelectReady(1, nil) != nil {
		t.Fatal("no candidates must mean no ready fds")
	}
}

// TestByteVarNames checks that variables print as their coordinates: a
// byte variable as stream:off, whether laid out in the spec's block, grown
// past it, or in a stream the registry's spec does not declare, and a
// syscall variable as its key.
func TestByteVarNames(t *testing.T) {
	sp := spec()
	sp.Files = append(sp.Files, FileSpec("other", "", 4))
	w := NewWorld(sp, NewRegistry(spec()), nil)
	w.ModelSyscalls = true
	cases := []struct {
		in   *sym.Input
		want string
	}{
		{mark(w, "arg0", 0), "arg0:0"},
		{mark(w, "arg0", 6), "arg0:6"},
		{mark(w, "conn0", 40), "conn0:40"},
		{mark(w, "file:other", 12), "file:other:12"},
		{readVar(w, 3, 8), "sys:read:3"},
	}
	w.Commit()
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("variable %d prints as %q, want %q", c.in.ID, got, c.want)
		}
	}
	if _, ok := w.Reg.lookup("arg0:0"); ok {
		t.Error("lookup must hold only syscall keys")
	}
}

func TestStreamCapGrowth(t *testing.T) {
	// Constructors never cap below the seed.
	s := ArgSpec(0, "longseed", 2)
	if s.Len < len("longseed")+1 {
		t.Fatalf("len: %d", s.Len)
	}
	f := FileSpec("p", "abcdef", 2)
	if f.Stream.Len < 6 {
		t.Fatalf("file len: %d", f.Stream.Len)
	}
	c := ConnSpec(1, "xyz", 1, 5)
	if c.Stream.Len < 3 || c.ArrivalTick != 5 {
		t.Fatalf("conn: %+v", c)
	}
}
