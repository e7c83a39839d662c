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

// UserSpec returns the user-site input space: a copy of the spec with each
// stream the user map names seeded with the user's bytes. Every key must
// name a declared stream and fit its length: a typo'd stream name would
// otherwise record the neutral seed in place of the user's input.
func (sp *Spec) UserSpec(user map[string][]byte) (*Spec, error) {
	cp := *sp
	cp.Args = append([]Stream(nil), sp.Args...)
	cp.Files = append([]FileInput(nil), sp.Files...)
	cp.Conns = append([]ConnInput(nil), sp.Conns...)
	seeded := make(map[string]bool, len(user))
	seed := func(st *Stream) error {
		b, ok := user[st.Name]
		if !ok {
			return nil
		}
		if len(b) > st.Len {
			return fmt.Errorf("world: user input for %s is %d bytes, stream caps at %d",
				st.Name, len(b), st.Len)
		}
		st.Seed = b
		seeded[st.Name] = true
		return nil
	}
	for i := range cp.Args {
		if err := seed(&cp.Args[i]); err != nil {
			return nil, err
		}
	}
	for i := range cp.Files {
		if err := seed(&cp.Files[i].Stream); err != nil {
			return nil, err
		}
	}
	for i := range cp.Conns {
		if err := seed(&cp.Conns[i].Stream); err != nil {
			return nil, err
		}
	}
	for name := range user {
		if !seeded[name] {
			return nil, fmt.Errorf("world: user input names stream %q, but the spec declares no such stream", name)
		}
	}
	return &cp, nil
}

// Registry assigns stable symbolic input variables. It persists across the
// runs of one analysis or replay session; a variable's ID never changes
// once given, so constraints produced by different runs agree on variable
// identity. A Registry is safe for concurrent use.
//
// IDs are given when a run commits. A run executes over a World, which
// hands it one variable per coordinate it touches: its own, if it made one
// there, else the numbered one, if a commit made it, else a new unnumbered
// variable (ID -1), which the world keeps as its own and records in touch
// order. World.Commit numbers the run's own variables in that order and
// fixes their domains, skipping each coordinate that a commit before it
// numbered (the run's variable takes that ID and domain). Runs that commit
// in run order therefore get the IDs and domains of a registry that numbers
// each variable at its first touch, run after run: the numbering is the
// same whether the runs executed one at a time or at once. That holds
// because a run never reads the ID of a variable its input does not bind,
// and an input binds only numbered variables, so a run executes the same
// whether or not its variables are numbered yet. The registry holds
// numbered variables only.
//
// A reproduction starts from a fresh registry and its first run marks every
// input byte it reads, so byte variables are laid out up front: on the first
// byte variable, every stream the spec declares gets a table of Len+1 slots
// (the last one is the argv NUL terminator MarkByte registers) in one block,
// and variables are carved from one slab of the same size. Only an offset
// past its stream's slots, or a stream the spec does not declare, grows a
// table of its own.
type Registry struct {
	mu     sync.Mutex
	spec   *Spec
	inputs []*sym.Input // the numbered variables, by ID
	// byKey holds the syscall variables, by their sys:kind:seq key.
	byKey map[string]*sym.Input
	// byStream indexes byte variables by (stream, offset).
	byStream map[string][]*sym.Input
	laidOut  bool
	// slab backs the byte variables; its capacity is the laid-out block's.
	slab []sym.Input
}

// NewRegistry returns an empty registry over spec's input space. A nil spec
// lays nothing out: every byte table grows on demand.
func NewRegistry(spec *Spec) *Registry {
	return &Registry{
		spec:     spec,
		byKey:    make(map[string]*sym.Input),
		byStream: make(map[string][]*sym.Input),
	}
}

// byteVar returns the numbered variable of byte (stream, off), or else a
// new unnumbered one with domain [lo, hi] and numbered false.
func (r *Registry) byteVar(stream string, off, lo, hi int64) (in *sym.Input, numbered bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.laidOut {
		r.layOut()
	}
	tbl := r.byStream[stream]
	if off >= int64(len(tbl)) {
		tbl = append(tbl, make([]*sym.Input, off+1-int64(len(tbl)))...)
		r.byStream[stream] = tbl
	}
	if in := tbl[off]; in != nil {
		return in, true
	}
	if n := len(r.slab); n < cap(r.slab) {
		r.slab = r.slab[:n+1]
		in = &r.slab[n]
	} else {
		in = new(sym.Input)
	}
	*in = sym.ByteInput(-1, stream, off, lo, hi)
	return in, false
}

// layOut gives every declared stream its Len+1 table slots in one block
// and sizes the variable slab and ID table to match.
func (r *Registry) layOut() {
	r.laidOut = true
	if r.spec == nil {
		return
	}
	total := r.spec.slots()
	block := make([]*sym.Input, total)
	r.spec.eachStream(func(st Stream) {
		if _, dup := r.byStream[st.Name]; !dup {
			n := st.Len + 1
			r.byStream[st.Name] = block[:n:n]
			block = block[n:]
		}
	})
	r.slab = make([]sym.Input, 0, total)
	r.inputs = append(make([]*sym.Input, 0, len(r.inputs)+total), r.inputs...)
}

// slots returns the number of table slots the spec's streams lay out.
func (sp *Spec) slots() int {
	total := 0
	sp.eachStream(func(st Stream) { total += st.Len + 1 })
	return total
}

// syscallVar returns the numbered variable under a sys:kind:seq key, or
// else a new unnumbered one with domain [lo, hi] and numbered false.
func (r *Registry) syscallVar(key string, lo, hi int64) (in *sym.Input, numbered bool) {
	if in, ok := r.lookup(key); ok {
		return in, true
	}
	return sym.NewInput(-1, key, lo, hi), false
}

// commit numbers run w's own variables in touch order; a coordinate a
// commit before this one numbered gives the run's variable its ID and
// domain instead.
func (r *Registry) commit(w *World) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var (
		stream string
		tbl    []*sym.Input
	)
	for _, in := range w.touched {
		var num *sym.Input
		off, isByte := in.ByteOffset()
		if isByte {
			// Runs touch bytes stream by stream: look the table up once
			// per stretch. byteVar made the slot when it made in.
			if tbl == nil || in.Name != stream {
				stream, tbl = in.Name, r.byStream[in.Name]
			}
			num = tbl[off]
		} else {
			num = r.byKey[in.Name]
		}
		if num != nil {
			in.ID, in.Lo, in.Hi = num.ID, num.Lo, num.Hi
			continue
		}
		in.ID = len(r.inputs)
		r.inputs = append(r.inputs, in)
		if isByte {
			tbl[off] = in
		} else {
			r.byKey[in.Name] = in
		}
	}
}

// lookupByte returns the numbered variable of byte (stream, off), if any.
func (r *Registry) lookupByte(stream string, off int64) (*sym.Input, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if tbl := r.byStream[stream]; off >= 0 && off < int64(len(tbl)) {
		if in := tbl[off]; in != nil {
			return in, true
		}
	}
	return nil, false
}

// materialize writes every byte of stream s under asn into out, holding
// the lock once for the whole stream: a bound variable's value, else the
// seed byte, else NUL. Only numbered variables can be bound.
func (r *Registry) materialize(s Stream, asn sym.MapAssignment, out []byte) {
	r.mu.Lock()
	tbl := r.byStream[s.Name]
	for i := range out {
		var b byte
		if i < len(s.Seed) {
			b = s.Seed[i]
		}
		if i < len(tbl) && tbl[i] != nil {
			if v, bound := asn[tbl[i].ID]; bound {
				b = byte(v)
			}
		}
		out[i] = b
	}
	r.mu.Unlock()
}

// lookup returns the numbered syscall variable under a sys:kind:seq key, if
// any.
func (r *Registry) lookup(key string) (*sym.Input, bool) {
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

// Len returns the number of numbered variables.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.inputs)
}

// Domains returns the solver domains of the given variable IDs, in input
// order, appended to buf[:0] under one registry lock. Both search engines
// build one solver problem per explored alternative, so this runs on their
// hot paths; callers pass sorted, duplicate-free IDs (sym.ConstraintVarIDs)
// so the result meets solver.Problem's Domains contract directly, and reuse
// buf across problems (the solver keeps no reference to it).
func (r *Registry) Domains(ids []int, buf []solver.VarDomain) []solver.VarDomain {
	out := buf[:0]
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

	// seedCache memoizes per-stream materialized bytes; a symbolic world's
	// are carved from block.
	seedCache map[string][]byte
	block     []byte
	// selectTable holds derived count expressions (sums of readiness bits)
	// for modeled select() calls, keyed by select sequence number.
	selectTable *selectCountTable

	// The run's own variables, numbered when it commits (see Registry):
	// ownBytes by declared stream (arguments, files, then connections) and
	// offset, ownSys by sys:kind:seq key, touched all of them in touch
	// order.
	ownBytes [][]*sym.Input
	ownSys   map[string]*sym.Input
	touched  []*sym.Input
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

// Rebind readies the world for another run under asn: the assignment
// changes, what the last run materialized and modeled is forgotten, and the
// buffers stay. The bytes the last run materialized are overwritten, so a
// caller rebinds only once nothing of that run still reads them. A last
// run that did not commit is discarded.
func (w *World) Rebind(asn sym.MapAssignment) {
	if asn == nil {
		asn = sym.MapAssignment{}
	}
	w.Discard()
	w.Asn = asn
	clear(w.seedCache)
	w.block = w.block[:0]
	w.selectTable = nil
}

// Commit numbers the world's run's own variables, in the order it touched
// them (see Registry). Call it once the run has ended; across the runs of
// one registry, call it in run order. The world is then ready to be
// rebound.
func (w *World) Commit() {
	if len(w.touched) > 0 {
		w.Reg.commit(w)
	}
	w.Discard()
}

// Discard drops the world's run's own variables: what the run did not
// commit stays unnumbered, as if the run was never made.
func (w *World) Discard() {
	if len(w.touched) == 0 {
		return
	}
	for _, own := range w.ownBytes {
		clear(own)
	}
	clear(w.ownSys)
	w.touched = w.touched[:0]
}

// byteVar returns the variable the run sees for byte (stream, off), stream
// being the i-th the spec declares: its own, else the numbered one, else a
// new one of its own with domain [lo, hi].
func (w *World) byteVar(i int, stream string, off, lo, hi int64) *sym.Input {
	var own []*sym.Input
	if w.ownBytes != nil {
		own = w.ownBytes[i]
	}
	if off < int64(len(own)) && own[off] != nil {
		return own[off]
	}
	in, numbered := w.Reg.byteVar(stream, off, lo, hi)
	if numbered {
		return in
	}
	if w.ownBytes == nil {
		w.layOut()
		own = w.ownBytes[i]
	}
	if off >= int64(len(own)) {
		own = append(own, make([]*sym.Input, off+1-int64(len(own)))...)
		w.ownBytes[i] = own
	}
	own[off] = in
	w.touched = append(w.touched, in)
	return in
}

// layOut gives every declared stream a table of Len+1 slots for the run's
// own variables, in one block, and sizes the touch log to match.
func (w *World) layOut() {
	total := w.Spec.slots()
	block := make([]*sym.Input, total)
	w.ownBytes = make([][]*sym.Input, 0, len(w.Spec.Args)+len(w.Spec.Files)+len(w.Spec.Conns))
	w.Spec.eachStream(func(st Stream) {
		n := st.Len + 1
		w.ownBytes = append(w.ownBytes, block[:n:n])
		block = block[n:]
	})
	if w.touched == nil {
		w.touched = make([]*sym.Input, 0, total)
	}
}

// syscallVar returns the variable the run sees for the seq-th result of a
// syscall kind: its own, else the numbered one, else a new one of its own
// with domain [lo, hi].
func (w *World) syscallVar(kind string, seq int, lo, hi int64) *sym.Input {
	key := "sys:" + kind + ":" + strconv.Itoa(seq)
	if in := w.ownSys[key]; in != nil {
		return in
	}
	in, numbered := w.Reg.syscallVar(key, lo, hi)
	if !numbered {
		if w.ownSys == nil {
			w.ownSys = make(map[string]*sym.Input)
		}
		w.ownSys[key] = in
		w.touched = append(w.touched, in)
	}
	return in
}

// byteValue computes the concrete value of one stream byte under the current
// assignment: the assignment's value when the variable is numbered and
// bound, else the seed byte, else NUL.
func (w *World) byteValue(s Stream, off int64) byte {
	if in, ok := w.Reg.lookupByte(s.Name, off); ok {
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
// terminators inside the programs. A symbolic world carves the bytes of
// every stream from one spec-sized block and reads each stream's variables
// under one registry lock. A concrete world (the user-site run and its
// verification) allocates and reads byte by byte as it always has: that run
// is the yardstick reproduction and recording costs are measured against,
// so its cost stays put when the symbolic side gets cheaper.
func (w *World) MaterializeStream(s Stream) []byte {
	if b, ok := w.seedCache[s.Name]; ok {
		return b
	}
	var out []byte
	if w.Symbolic {
		out = w.carve(s.Len)
		w.Reg.materialize(s, w.Asn, out)
	} else {
		out = make([]byte, s.Len)
		for i := range out {
			out[i] = w.byteValue(s, int64(i))
		}
	}
	w.seedCache[s.Name] = out
	return out
}

// carve returns n bytes from the world's byte block, laying the block out
// for every declared stream on first use. After a Rebind they hold the last
// run's bytes: the caller overwrites all of them.
func (w *World) carve(n int) []byte {
	if w.block == nil {
		total := 0
		w.Spec.eachStream(func(st Stream) { total += st.Len })
		w.block = make([]byte, 0, total)
	}
	if len(w.block)+n > cap(w.block) {
		return make([]byte, n)
	}
	w.block = w.block[:len(w.block)+n]
	return w.block[len(w.block)-n : len(w.block) : len(w.block)]
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
	st, i := w.declared(stream)
	if i < 0 {
		return nil
	}
	if off >= int64(st.Len) {
		return w.byteVar(i, stream, off, 0, 0)
	}
	return w.byteVar(i, stream, off, 0, 255)
}

// declared returns the declared stream of that name and its position among
// the spec's streams (arguments, files, then connections), or -1.
func (w *World) declared(stream string) (Stream, int) {
	i := 0
	for _, a := range w.Spec.Args {
		if a.Name == stream {
			return a, i
		}
		i++
	}
	for _, f := range w.Spec.Files {
		if f.Stream.Name == stream {
			return f.Stream, i
		}
		i++
	}
	for _, c := range w.Spec.Conns {
		if c.Stream.Name == stream {
			return c.Stream, i
		}
		i++
	}
	return Stream{}, -1
}

// eachStream calls fn for every declared stream: arguments, files, then
// connections.
func (sp *Spec) eachStream(fn func(Stream)) {
	for _, a := range sp.Args {
		fn(a)
	}
	for _, f := range sp.Files {
		fn(f.Stream)
	}
	for _, c := range sp.Conns {
		fn(c.Stream)
	}
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
		key := "sys:read:" + strconv.Itoa(seq)
		in, ok := w.ownSys[key]
		if !ok {
			in, ok = w.Reg.lookup(key)
		}
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
// "initially returns the amount of input requested"). An unnumbered
// variable is unbound.
func (w *World) ReadCount(stream string, seq int, max int64) int64 {
	in := w.syscallVar("read", seq, -1, max)
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
		bit := w.syscallVar("select:"+strconv.Itoa(seq)+":cand", j, 0, 1)
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
