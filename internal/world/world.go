// Package world manages the symbolic input space of one benchmark scenario.
//
// A Spec declares which byte streams constitute program input — argument
// strings, file contents, connection payloads — along with the workload's
// kernel parameters. A Registry assigns stable symbolic-variable IDs to
// (stream, offset) coordinates and to modeled syscall results, so that
// constraints produced in different runs refer to the same variables. A World
// binds a Spec, a Registry, and one concrete assignment: it materializes the
// kernel configuration for a run and implements both vm.World (symbolic byte
// marking) and oskernel.ResultModel (modeled syscall results for replay
// without syscall logs).
package world

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"pathlog/internal/oskernel"
	"pathlog/internal/solver"
	"pathlog/internal/sym"
)

// Stream is one symbolic byte region. Bytes beyond the seed content up to
// Len read as NUL, giving the solver room to lengthen strings (the paper
// runs coreutils "with up to 10 arguments, each 100 bytes long").
type Stream struct {
	Name string
	Seed []byte
	Len  int
}

// FileInput attaches a stream to a file path.
type FileInput struct {
	Path   string
	Stream Stream
}

// ConnInput attaches a stream to a scripted client connection.
type ConnInput struct {
	Stream      Stream
	ArrivalTick int64
}

// Spec declares the full input space and workload shape of a scenario.
type Spec struct {
	Args  []Stream
	Files []FileInput
	Conns []ConnInput

	ListenPort            int
	KernelSeed            int64
	ShortReadDenom        int
	RotateSelectOrder     bool
	CrashSignalAfterConns bool
	// SymbolicFS selects the KLEE-style symbolic filesystem model: open()
	// succeeds against the declared files in order, whatever the path. Set
	// it for workloads whose file names are themselves symbolic input.
	SymbolicFS bool
}

// ArgSpec builds an argument stream named by its position.
func ArgSpec(i int, seed string, maxLen int) Stream {
	if maxLen < len(seed)+1 {
		maxLen = len(seed) + 1
	}
	return Stream{Name: oskernel.ArgStream(i), Seed: []byte(seed), Len: maxLen}
}

// FileSpec builds a file input stream.
func FileSpec(path, seed string, maxLen int) FileInput {
	if maxLen < len(seed) {
		maxLen = len(seed)
	}
	return FileInput{Path: path, Stream: Stream{
		Name: oskernel.FileStream(path), Seed: []byte(seed), Len: maxLen,
	}}
}

// ConnSpec builds a connection input stream for connection index i.
func ConnSpec(i int, seed string, maxLen int, arrival int64) ConnInput {
	if maxLen < len(seed) {
		maxLen = len(seed)
	}
	return ConnInput{
		Stream:      Stream{Name: oskernel.ConnStream(i), Seed: []byte(seed), Len: maxLen},
		ArrivalTick: arrival,
	}
}

// Registry assigns stable symbolic input variables. It persists across the
// runs of one analysis or replay session; IDs are allocated on first use of
// a coordinate and never change afterwards, so constraints produced by
// different runs agree on variable identity. A Registry is safe for
// concurrent use.
type Registry struct {
	mu     sync.Mutex
	byKey  map[string]*sym.Input
	inputs []*sym.Input
	// byStream indexes byte variables by (stream, offset) so the per-byte
	// hot paths (symbolic marking, materialization) skip the key formatting
	// and map hashing of byKey. It shadows byKey: every byte variable is in
	// both.
	byStream map[string][]*sym.Input
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byKey:    make(map[string]*sym.Input),
		byStream: make(map[string][]*sym.Input),
	}
}

// ByteVar returns the input variable for byte (stream, off).
func (r *Registry) ByteVar(stream string, off int64) *sym.Input {
	return r.BoundedByteVar(stream, off, 0, 255)
}

// BoundedByteVar returns the input variable for byte (stream, off) with a
// custom domain; the domain is fixed on first use.
func (r *Registry) BoundedByteVar(stream string, off, lo, hi int64) *sym.Input {
	r.mu.Lock()
	defer r.mu.Unlock()
	if tbl := r.byStream[stream]; off >= 0 && off < int64(len(tbl)) {
		if in := tbl[off]; in != nil {
			return in
		}
	}
	key := stream + ":" + strconv.FormatInt(off, 10)
	in := sym.NewInput(len(r.inputs), key, lo, hi)
	r.byKey[key] = in
	r.inputs = append(r.inputs, in)
	tbl := r.byStream[stream]
	for int64(len(tbl)) <= off {
		tbl = append(tbl, nil)
	}
	tbl[off] = in
	r.byStream[stream] = tbl
	return in
}

// SyscallVar returns the input variable modeling a nondeterministic syscall
// result, e.g. ("read", 3) for the count of the fourth read. The domain is
// fixed on first use.
func (r *Registry) SyscallVar(kind string, seq int, lo, hi int64) *sym.Input {
	key := "sys:" + kind + ":" + strconv.Itoa(seq)
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.byKey[key]; ok {
		return in
	}
	in := sym.NewInput(len(r.inputs), key, lo, hi)
	r.byKey[key] = in
	r.inputs = append(r.inputs, in)
	return in
}

// LookupByte returns the variable of byte (stream, off), if registered.
func (r *Registry) LookupByte(stream string, off int64) (*sym.Input, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if tbl := r.byStream[stream]; off >= 0 && off < int64(len(tbl)) {
		if in := tbl[off]; in != nil {
			return in, true
		}
	}
	return nil, false
}

// Lookup returns the variable registered under a key, if any.
func (r *Registry) Lookup(key string) (*sym.Input, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	in, ok := r.byKey[key]
	return in, ok
}

// Get returns the variable with the given ID.
func (r *Registry) Get(id int) *sym.Input {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id < 0 || id >= len(r.inputs) {
		return nil
	}
	return r.inputs[id]
}

// Len returns the number of registered variables.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.inputs)
}

// SortedKeys lists the registered coordinate keys in lexical order.
func (r *Registry) SortedKeys() []string {
	r.mu.Lock()
	keys := make([]string, 0, len(r.byKey))
	for k := range r.byKey {
		keys = append(keys, k)
	}
	r.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Domains returns the solver domains of the given variable IDs, in input
// order, locking the registry once. Both search engines build one solver
// problem per explored alternative, so this runs on their hot paths; callers
// pass sorted, duplicate-free IDs (sym.ConstraintVarIDs) so the result meets
// solver.Problem's Domains contract directly.
func (r *Registry) Domains(ids []int) []solver.VarDomain {
	out := make([]solver.VarDomain, 0, len(ids))
	r.mu.Lock()
	for _, id := range ids {
		if id >= 0 && id < len(r.inputs) {
			if in := r.inputs[id]; in != nil {
				out = append(out, solver.VarDomain{ID: id, Lo: in.Lo, Hi: in.Hi})
			}
		}
	}
	r.mu.Unlock()
	return out
}

// World binds a scenario to one concrete input assignment.
type World struct {
	Spec *Spec
	Reg  *Registry
	// Asn holds the concrete values of registered input variables; missing
	// variables take their seed value.
	Asn sym.MapAssignment
	// Symbolic enables symbolic byte marking (analysis and replay runs).
	Symbolic bool
	// ModelSyscalls enables the symbolic syscall-result model (replay
	// without syscall logs, §3.3).
	ModelSyscalls bool

	// seedCache memoizes per-stream materialized bytes.
	seedCache map[string][]byte
	// selectTable holds derived count expressions (sums of readiness bits)
	// for modeled select() calls, keyed by select sequence number.
	selectTable *selectCountTable
}

// NewWorld creates a world over spec with the given assignment; a nil
// assignment means all-seed values.
func NewWorld(spec *Spec, reg *Registry, asn sym.MapAssignment) *World {
	if asn == nil {
		asn = sym.MapAssignment{}
	}
	return &World{Spec: spec, Reg: reg, Asn: asn, Symbolic: true,
		seedCache: make(map[string][]byte)}
}

// byteValue computes the concrete value of one stream byte under the current
// assignment: the assignment's value when the variable exists and is bound,
// else the seed byte, else NUL.
func (w *World) byteValue(s Stream, off int64) byte {
	if in, ok := w.Reg.LookupByte(s.Name, off); ok {
		if v, bound := w.Asn[in.ID]; bound {
			return byte(v)
		}
	}
	if off < int64(len(s.Seed)) {
		return s.Seed[off]
	}
	return 0
}

// MaterializeStream renders a stream's concrete bytes for this run. The
// materialized length is the full stream length; NUL bytes act as string
// terminators inside the programs.
func (w *World) MaterializeStream(s Stream) []byte {
	if b, ok := w.seedCache[s.Name]; ok {
		return b
	}
	out := make([]byte, s.Len)
	for i := range out {
		out[i] = w.byteValue(s, int64(i))
	}
	w.seedCache[s.Name] = out
	return out
}

// KernelConfig materializes the oskernel configuration for one run.
// Mode-specific fields (Mode, Log, Model, LogSyscalls) are left zero for the
// caller to fill in.
func (w *World) KernelConfig() oskernel.Config {
	cfg := oskernel.Config{
		ListenPort:            w.Spec.ListenPort,
		Seed:                  w.Spec.KernelSeed,
		ShortReadDenom:        w.Spec.ShortReadDenom,
		RotateSelectOrder:     w.Spec.RotateSelectOrder,
		CrashSignalAfterConns: w.Spec.CrashSignalAfterConns,
	}
	// Argument streams are passed untrimmed: the program sees the whole
	// fixed-size argv region (NUL-terminated-string semantics apply inside
	// it), so the position of the first NUL — the string's length — is
	// itself symbolic and the replay engine can lengthen or shorten
	// arguments, exactly as the paper's engine treats argv memory.
	for _, a := range w.Spec.Args {
		cfg.Args = append(cfg.Args, w.MaterializeStream(a))
	}
	cfg.SymbolicFS = w.Spec.SymbolicFS
	if len(w.Spec.Files) > 0 {
		cfg.Files = make(map[string][]byte, len(w.Spec.Files))
		for _, f := range w.Spec.Files {
			cfg.Files[f.Path] = w.MaterializeStream(f.Stream)
			cfg.FileOrder = append(cfg.FileOrder, f.Path)
		}
	}
	for _, c := range w.Spec.Conns {
		cfg.Conns = append(cfg.Conns, oskernel.ConnSpec{
			Payload:     w.MaterializeStream(c.Stream),
			ArrivalTick: c.ArrivalTick,
		})
	}
	return cfg
}

// MarkByte implements vm.World: input bytes of declared streams are
// symbolic. A position just past the stream's end (the argv NUL terminator)
// is symbolic with the singleton domain {0}: the whole argv region is
// symbolic, as in the paper's engine, but the terminator cannot change.
func (w *World) MarkByte(stream string, off int64) sym.Expr {
	if !w.Symbolic {
		return nil
	}
	st, ok := w.streamDeclared(stream)
	if !ok {
		return nil
	}
	if off >= int64(st.Len) {
		return w.Reg.BoundedByteVar(stream, off, 0, 0)
	}
	return w.Reg.ByteVar(stream, off)
}

func (w *World) streamDeclared(stream string) (Stream, bool) {
	for _, a := range w.Spec.Args {
		if a.Name == stream {
			return a, true
		}
	}
	for _, f := range w.Spec.Files {
		if f.Stream.Name == stream {
			return f.Stream, true
		}
	}
	for _, c := range w.Spec.Conns {
		if c.Stream.Name == stream {
			return c.Stream, true
		}
	}
	return Stream{}, false
}

// SyscallExpr implements vm.World: in model mode the result of read/select
// carries the modeled variable's expression. Reads map to a single count
// variable; selects map to the sum of their readiness bits.
func (w *World) SyscallExpr(kind string, seq int) sym.Expr {
	if !w.ModelSyscalls {
		return nil
	}
	switch kind {
	case "read":
		in, ok := w.Reg.Lookup("sys:read:" + strconv.Itoa(seq))
		if !ok {
			// The kernel consults the model before the VM asks for the
			// expression, so a miss means the call had no modeled result.
			return nil
		}
		return in
	case "select":
		if w.selectTable == nil {
			return nil
		}
		return w.selectTable.m[seq]
	}
	return nil
}

// ReadCount implements oskernel.ResultModel. The modeled count is an input
// variable with domain [-1, max] seeded at max (the paper's read() model:
// "initially returns the amount of input requested").
func (w *World) ReadCount(stream string, seq int, max int64) int64 {
	in := w.Reg.SyscallVar("read", seq, -1, max)
	if v, ok := w.Asn[in.ID]; ok {
		if v > max {
			return max
		}
		return v
	}
	return max
}

// SelectReady implements oskernel.ResultModel. Each candidate fd of the
// seq-th select gets a 0/1 readiness variable seeded ready; the returned
// order is candidate order. The count expression registered under
// sys:select:<seq> is the sum of the readiness bits, so branches on the
// select count constrain exactly those bits.
func (w *World) SelectReady(seq int, candidates []int) []int {
	if len(candidates) == 0 {
		return nil
	}
	var ready []int
	var countExpr sym.Expr = sym.Zero
	for j, fd := range candidates {
		bit := w.Reg.SyscallVar("select:"+strconv.Itoa(seq)+":cand", j, 0, 1)
		countExpr = sym.Add(countExpr, bit)
		v, bound := w.Asn[bit.ID]
		if !bound {
			v = 1 // seed: everything with pending data is ready
		}
		if v != 0 {
			ready = append(ready, fd)
		}
	}
	// Register the count variable's expression under the select key. We
	// cannot store an expression in the registry (it holds inputs), so the
	// sum is attached via a derived-expression table.
	w.selectCountExprs().set(seq, countExpr)
	return ready
}

// selectCounts lazily allocates the derived-expression table.
type selectCountTable struct {
	m map[int]sym.Expr
}

func (t *selectCountTable) set(seq int, e sym.Expr) { t.m[seq] = e }

func (w *World) selectCountExprs() *selectCountTable {
	if w.selectTable == nil {
		w.selectTable = &selectCountTable{m: make(map[int]sym.Expr)}
	}
	return w.selectTable
}

// Seeds returns a deterministic listing of registered variables and their
// current concrete values, for debugging and reports.
func (w *World) Seeds() []string {
	keys := w.Reg.SortedKeys()
	out := make([]string, len(keys))
	for i, k := range keys {
		in, _ := w.Reg.Lookup(k)
		v, bound := w.Asn[in.ID]
		if !bound {
			out[i] = fmt.Sprintf("%s=seed", k)
		} else {
			out[i] = fmt.Sprintf("%s=%d", k, v)
		}
	}
	return out
}
