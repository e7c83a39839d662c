// Package oskernel simulates the operating-system environment that MiniC
// programs run against: argument vectors, an in-memory file system, listening
// sockets with scripted client connections, and the select/accept/read/write
// system calls.
//
// The paper's experiments depend on two OS behaviours that this package
// reproduces deterministically:
//
//   - Nondeterminism. select() ready-set ordering and read() short-counts
//     vary between runs. A seeded PRNG injects both, so recorded executions
//     contain genuine nondeterminism that replay must either read back from
//     the syscall-result log or search for (§2.3, §3.3, Tables 5 and 8).
//
//   - Selective syscall-result logging. In record mode the kernel can log
//     the results (never the data) of read/select/accept; in replay mode it
//     can serve results back from such a log. Data bytes are never logged —
//     the user's input stays private.
//
// The kernel itself is fully concrete. Symbolic marking of input bytes is
// layered on top by the VM through stream coordinates: every byte the kernel
// hands to the program is labeled with (stream, offset), and the execution
// engine decides which streams are symbolic program input.
package oskernel

import (
	"fmt"
	"math/rand"
	"sort"
)

// Mode selects how the kernel resolves nondeterministic syscall results.
type Mode int

// Kernel modes.
const (
	// ModeRecord runs with injected nondeterminism, optionally logging
	// syscall results. This is the "user site" mode.
	ModeRecord Mode = iota
	// ModeReplayLogged serves nondeterministic results from a syscall log.
	ModeReplayLogged
	// ModeReplayModel resolves nondeterministic results from a ResultModel
	// callback (the replay engine supplies symbolic-variable-backed values).
	ModeReplayModel
)

// Well-known file descriptors.
const (
	FDStdin  = 0
	FDStdout = 1
	FDStderr = 2
)

// Flags for Open (subset).
const (
	ORdOnly = 0
	OWrOnly = 1
)

// ConnSpec scripts one client connection for server workloads.
type ConnSpec struct {
	// Payload is the request bytes the client sends (the seed content for
	// symbolic replay).
	Payload []byte
	// ArrivalTick is the kernel tick at which the connection appears on the
	// listening socket.
	ArrivalTick int64
}

// Config describes the simulated environment for one run.
type Config struct {
	// Args is the argument vector (argv[1:]; the program name is implicit).
	Args [][]byte
	// Files maps path names to file contents.
	Files map[string][]byte
	// FileOrder lists Files keys in declaration order, for SymbolicFS.
	FileOrder []string
	// SymbolicFS emulates KLEE's symbolic filesystem model: open() calls
	// succeed against the declared files in declaration order regardless of
	// the path argument. Without it, a symbolic file name could never be
	// found by search (there is no branch constraining its bytes), which is
	// exactly why KLEE-based systems model the FS this way.
	SymbolicFS bool
	// Conns scripts client connections, in arrival order.
	Conns []ConnSpec
	// ListenPort is the port the program is expected to listen on; 0 when
	// the workload has no server component.
	ListenPort int
	// Seed drives injected nondeterminism.
	Seed int64
	// ShortReadDenom injects short reads: each read returns roughly half
	// the available bytes with probability 1/ShortReadDenom. 0 disables.
	ShortReadDenom int
	// RotateSelectOrder shuffles select() ready ordering pseudo-randomly.
	RotateSelectOrder bool
	// CrashSignalAfterConns delivers a crash signal (the SIGSEGV analogue
	// from §5.3) once every scripted connection has been fully consumed.
	CrashSignalAfterConns bool

	// Mode selects record or replay behaviour.
	Mode Mode
	// Log collects syscall results in ModeRecord when LogSyscalls is true,
	// and supplies them in ModeReplayLogged.
	Log *SyscallLog
	// LogSyscalls enables syscall-result logging in ModeRecord.
	LogSyscalls bool
	// Model resolves nondeterministic results in ModeReplayModel.
	Model ResultModel
}

// ResultModel lets the replay engine supply nondeterministic syscall results
// (backed by symbolic variables) when no syscall log is available.
type ResultModel interface {
	// ReadCount picks the byte count returned by the seq-th read() on the
	// given stream. max is the requested count clamped to stream capacity.
	ReadCount(stream string, seq int, max int64) int64
	// SelectReady picks the subset of candidate fds reported ready by the
	// seq-th select(). Order matters; fds not in the result stay pending.
	SelectReady(seq int, candidates []int) []int
}

// fdKind classifies descriptors.
type fdKind int

const (
	fdFile fdKind = iota
	fdListen
	fdConn
	fdStd
)

type fileDesc struct {
	kind   fdKind
	path   string // files
	data   []byte // file contents or connection payload
	off    int64
	conn   int // connection index for fdConn
	closed bool
	wbuf   []byte // bytes written to a connection (responses)
}

// Kernel is one simulated OS instance. It is single-threaded, matching the
// paper's sequential-execution scope, and is not safe for concurrent use.
type Kernel struct {
	cfg  Config
	rng  *rand.Rand
	fds  map[int]*fileDesc
	next int
	tick int64

	listenFD    int
	nextConn    int // next scripted connection to hand to accept()
	connFDs     []int
	consumed    []bool // per-connection: payload fully read
	signalFired bool

	stdout []byte

	readSeq   int
	selectSeq int
	acceptSeq int
	openSeq   int

	// NSyscalls counts the run's syscalls; the engine parity tests compare
	// it across engines.
	NSyscalls int64
}

// New creates a kernel for one program run.
func New(cfg Config) *Kernel {
	k := &Kernel{
		cfg:      cfg,
		fds:      make(map[int]*fileDesc),
		next:     3,
		listenFD: -1,
		consumed: make([]bool, len(cfg.Conns)),
	}
	k.fds[FDStdin] = &fileDesc{kind: fdStd}
	k.fds[FDStdout] = &fileDesc{kind: fdStd}
	k.fds[FDStderr] = &fileDesc{kind: fdStd}
	return k
}

// rand returns the nondeterminism source, created on first draw. Only record
// mode ever draws from it; replay runs are fully scripted, and skipping the
// generator's seeding (a 607-word warm-up) is a measurable per-run saving.
func (k *Kernel) rand() *rand.Rand {
	if k.rng == nil {
		k.rng = rand.New(rand.NewSource(k.cfg.Seed))
	}
	return k.rng
}

// Args returns the argument vector.
func (k *Kernel) Args() [][]byte { return k.cfg.Args }

// ArgStream returns the input-stream coordinate name for argv[i].
func ArgStream(i int) string { return fmt.Sprintf("arg%d", i) }

// FileStream returns the input-stream coordinate name for a file path.
func FileStream(path string) string { return "file:" + path }

// ConnStream returns the input-stream coordinate name for connection i.
func ConnStream(i int) string { return fmt.Sprintf("conn%d", i) }

// Stdout returns everything the program wrote to fd 1.
func (k *Kernel) Stdout() []byte { return k.stdout }

// Tick returns the current kernel tick (advanced by every syscall).
func (k *Kernel) Tick() int64 { return k.tick }

func (k *Kernel) step() { k.tick++; k.NSyscalls++ }

func (k *Kernel) allocFD(d *fileDesc) int {
	fd := k.next
	k.next++
	k.fds[fd] = d
	return fd
}

// Open opens a file by path. Returns the new fd, or -1 when the path does
// not exist. Under SymbolicFS, opens are served from the declared files in
// declaration order, ignoring the path (the KLEE symbolic-FS model).
func (k *Kernel) Open(path string) int {
	k.step()
	if k.cfg.SymbolicFS {
		if k.openSeq >= len(k.cfg.FileOrder) {
			return -1
		}
		name := k.cfg.FileOrder[k.openSeq]
		k.openSeq++
		return k.allocFD(&fileDesc{kind: fdFile, path: name, data: k.cfg.Files[name]})
	}
	data, ok := k.cfg.Files[path]
	if !ok {
		return -1
	}
	return k.allocFD(&fileDesc{kind: fdFile, path: path, data: data})
}

// Close closes a descriptor. Returns 0, or -1 for a bad fd.
func (k *Kernel) Close(fd int) int {
	k.step()
	d, ok := k.fds[fd]
	if !ok || d.closed {
		return -1
	}
	d.closed = true
	return 0
}

// ReadResult carries one read()'s outcome plus the input-stream coordinates
// of the returned bytes so the VM can mark them symbolic.
type ReadResult struct {
	N      int64  // -1 error, 0 EOF, >0 bytes
	Data   []byte // len(Data) == N when N > 0
	Stream string // "" when the bytes are not program input
	Off    int64  // offset of Data[0] within Stream
}

// Read reads up to n bytes from fd.
func (k *Kernel) Read(fd int, n int64) ReadResult {
	k.step()
	d, ok := k.fds[fd]
	if !ok || d.closed || n < 0 {
		return ReadResult{N: -1}
	}
	switch d.kind {
	case fdStd:
		return ReadResult{N: 0} // no interactive stdin in the harness
	case fdFile, fdConn:
		avail := int64(len(d.data)) - d.off
		if avail <= 0 {
			if d.kind == fdConn {
				k.markConsumed(d.conn)
			}
			return ReadResult{N: 0}
		}
		want := n
		if want > avail {
			want = avail
		}
		count := k.resolveReadCount(d, want)
		if count < 0 {
			return ReadResult{N: -1}
		}
		if count == 0 {
			return ReadResult{N: 0}
		}
		if count > avail {
			count = avail
		}
		stream := ""
		switch d.kind {
		case fdFile:
			stream = FileStream(d.path)
		case fdConn:
			stream = ConnStream(d.conn)
		}
		res := ReadResult{
			N:      count,
			Data:   d.data[d.off : d.off+count],
			Stream: stream,
			Off:    d.off,
		}
		d.off += count
		if d.kind == fdConn && d.off >= int64(len(d.data)) {
			k.markConsumed(d.conn)
		}
		return res
	}
	return ReadResult{N: -1}
}

// resolveReadCount decides how many bytes a read returns, according to mode.
func (k *Kernel) resolveReadCount(d *fileDesc, want int64) int64 {
	seq := k.readSeq
	k.readSeq++
	switch k.cfg.Mode {
	case ModeRecord:
		count := want
		if k.cfg.ShortReadDenom > 0 && d.kind == fdConn &&
			k.rand().Intn(k.cfg.ShortReadDenom) == 0 && want > 1 {
			count = want / 2
		}
		if k.cfg.LogSyscalls && k.cfg.Log != nil {
			k.cfg.Log.appendRead(count)
		}
		return count
	case ModeReplayLogged:
		if k.cfg.Log != nil {
			if v, ok := k.cfg.Log.nextRead(); ok {
				if v > want {
					v = want
				}
				return v
			}
		}
		return want // log exhausted: a diverged path; defaults are fine
	case ModeReplayModel:
		if k.cfg.Model != nil {
			stream := ""
			if d.kind == fdConn {
				stream = ConnStream(d.conn)
			} else {
				stream = FileStream(d.path)
			}
			v := k.cfg.Model.ReadCount(stream, seq, want)
			if v > want {
				v = want
			}
			return v
		}
		return want
	}
	return want
}

// Write writes bytes to fd. Stdout/stderr are captured; connection writes are
// buffered per connection (the simulated client discards them).
func (k *Kernel) Write(fd int, data []byte) int64 {
	k.step()
	d, ok := k.fds[fd]
	if !ok || d.closed {
		return -1
	}
	switch d.kind {
	case fdStd:
		if fd == FDStdout || fd == FDStderr {
			k.stdout = append(k.stdout, data...)
		}
		return int64(len(data))
	case fdConn:
		d.wbuf = append(d.wbuf, data...)
		return int64(len(data))
	case fdFile:
		// Files are read-only in the harness.
		return -1
	}
	return -1
}

// Listen creates the listening socket. Only one per kernel.
func (k *Kernel) Listen(port int) int {
	k.step()
	if k.listenFD >= 0 {
		return -1
	}
	k.listenFD = k.allocFD(&fileDesc{kind: fdListen})
	return k.listenFD
}

// Accept accepts the next pending scripted connection, or returns -1 when
// none has arrived yet.
func (k *Kernel) Accept(lfd int) int {
	k.step()
	k.acceptSeq++
	d, ok := k.fds[lfd]
	if !ok || d.kind != fdListen || d.closed {
		return -1
	}
	if k.nextConn >= len(k.cfg.Conns) {
		return -1
	}
	spec := k.cfg.Conns[k.nextConn]
	if k.cfg.Mode == ModeRecord && spec.ArrivalTick > k.tick {
		return -1
	}
	fd := k.allocFD(&fileDesc{kind: fdConn, data: spec.Payload, conn: k.nextConn})
	k.connFDs = append(k.connFDs, fd)
	k.nextConn++
	return fd
}

// SelectReady reports the descriptors that are ready for reading: the listen
// socket when a connection is pending, and any connection with unread bytes.
// In record mode the order may be rotated by the nondeterminism source and
// the result is optionally logged; in replay modes the result comes from the
// log or the model.
func (k *Kernel) SelectReady(max int) []int {
	k.step()
	seq := k.selectSeq
	k.selectSeq++

	candidates := k.readyCandidates()
	var ready []int
	switch k.cfg.Mode {
	case ModeRecord:
		ready = candidates
		if k.cfg.RotateSelectOrder && len(ready) > 1 {
			rot := k.rand().Intn(len(ready))
			ready = append(append([]int{}, ready[rot:]...), ready[:rot]...)
		}
		if k.cfg.LogSyscalls && k.cfg.Log != nil {
			k.cfg.Log.appendSelect(ready)
		}
	case ModeReplayLogged:
		if k.cfg.Log != nil {
			if v, ok := k.cfg.Log.nextSelect(); ok {
				// Serve the logged set, dropping fds that do not exist in
				// this run (diverged path).
				for _, fd := range v {
					if _, exists := k.fds[fd]; exists {
						ready = append(ready, fd)
					}
				}
				break
			}
		}
		ready = candidates
	case ModeReplayModel:
		if k.cfg.Model != nil {
			ready = k.cfg.Model.SelectReady(seq, candidates)
		} else {
			ready = candidates
		}
	}
	if len(ready) > max {
		ready = ready[:max]
	}
	return ready
}

// readyCandidates computes which fds could be reported ready, in fd order.
func (k *Kernel) readyCandidates() []int {
	var out []int
	if k.listenFD >= 0 && k.nextConn < len(k.cfg.Conns) {
		if k.cfg.Mode != ModeRecord || k.cfg.Conns[k.nextConn].ArrivalTick <= k.tick {
			out = append(out, k.listenFD)
		}
	}
	fds := append([]int{}, k.connFDs...)
	sort.Ints(fds)
	for _, fd := range fds {
		d := k.fds[fd]
		if !d.closed && d.off < int64(len(d.data)) {
			out = append(out, fd)
		}
	}
	return out
}

func (k *Kernel) markConsumed(conn int) {
	if conn >= 0 && conn < len(k.consumed) {
		k.consumed[conn] = true
	}
}

// SignalPending reports whether the scripted crash signal has been
// delivered: all connections accepted and fully consumed.
func (k *Kernel) SignalPending() bool {
	k.step()
	if !k.cfg.CrashSignalAfterConns || k.signalFired {
		return k.signalFired
	}
	if k.nextConn < len(k.cfg.Conns) {
		return false
	}
	for _, c := range k.consumed {
		if !c {
			return false
		}
	}
	k.signalFired = true
	return true
}

// ConnWrites returns the bytes the program wrote to connection i (the HTTP
// responses in server workloads); nil when the connection was never accepted.
func (k *Kernel) ConnWrites(i int) []byte {
	for _, fd := range k.connFDs {
		d := k.fds[fd]
		if d.conn == i {
			return d.wbuf
		}
	}
	return nil
}
