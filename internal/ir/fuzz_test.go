package ir_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pathlog/internal/ir"
	"pathlog/internal/lang"
	"pathlog/internal/oskernel"
	"pathlog/internal/trace"
	"pathlog/internal/vm"
)

// This file is the generative arm of the differential harness: a seeded
// deterministic MiniC program generator drives tree-vs-bytecode execution
// over program shapes nobody thought to hand-write. Every generated program
// is syntactically valid by construction (the generator only emits declared
// names), may crash or loop forever (both engines must then agree on the
// crash site or the budget trip), and is replayed at a reduced step budget to
// probe the fused instructions' charge schedule at arbitrary cut points.
//
// FuzzEngineParity is the open-ended fuzz entry (seed corpus committed under
// testdata/fuzz); TestGenParityFixedSeeds pins a deterministic slice of the
// same space for every CI run, and TestFollowLogParityFixedSeeds the same
// slice under a sink that steers branches with vm.ErrFollowLog.

// genRand is a splitmix64 generator. The fuzzer's interesting inputs are
// remembered as raw seeds, so the stream behind a seed must never change;
// rolling our own keeps the mapping independent of math/rand's evolution.
type genRand struct{ s uint64 }

func (r *genRand) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// n returns a value in [0, n).
func (r *genRand) n(n int) int { return int(r.next() % uint64(n)) }

// pct reports true with the given percent probability.
func (r *genRand) pct(p int) bool { return r.n(100) < p }

// genProg holds the generator state for one program.
type genProg struct {
	r       *genRand
	b       strings.Builder
	globals []string // scalar global names
	arrays  []genArr // global + local arrays in scope
	locals  []string // assignable locals in scope
	frozen  map[string]bool
	funcs   []string // helper functions defined so far (callable)
	depth   int
	// safe makes every array index a constant in range and every divisor
	// nonzero, so the program can crash only at an explicit crash() and
	// no symbolic value ever selects a memory cell (see generateUnit).
	safe bool
}

type genArr struct {
	name string
	size int
}

// generate renders a complete MiniC unit from the seed.
func generate(seed uint64) string { return generateUnit(seed, 0) }

// generateUnit renders the unit for seed. With inputLen > 0, main first
// reads argv[0] into a char buffer of that size and seeds its locals from
// the buffer's bytes, so branches over the locals turn symbolic. Such a
// program is safe (constant array indexes, no unguarded divisor) and ends
// in a crash() guarded by a generated condition: its only crash site is
// behind a branch, where a replay search can steer to it, and its path
// condition is a function of the input alone. The generator draws the
// same stream up to that final branch either way, so the program shape
// behind a seed does not depend on inputLen.
func generateUnit(seed uint64, inputLen int) string {
	g := &genProg{r: &genRand{s: seed}, frozen: map[string]bool{}, safe: inputLen > 0}

	ng := 1 + g.r.n(3)
	for i := 0; i < ng; i++ {
		name := fmt.Sprintf("g%d", i)
		g.globals = append(g.globals, name)
		if g.r.pct(50) {
			fmt.Fprintf(&g.b, "int %s = %d;\n", name, g.r.n(20)-5)
		} else {
			fmt.Fprintf(&g.b, "int %s;\n", name)
		}
	}
	na := g.r.n(3)
	for i := 0; i < na; i++ {
		a := genArr{name: fmt.Sprintf("ga%d", i), size: 2 + g.r.n(7)}
		g.arrays = append(g.arrays, a)
		fmt.Fprintf(&g.b, "int %s[%d];\n", a.name, a.size)
	}

	nf := g.r.n(3)
	for i := 0; i < nf; i++ {
		g.genHelper(fmt.Sprintf("f%d", i))
	}

	g.b.WriteString("int main() {\n")
	if inputLen > 0 {
		fmt.Fprintf(&g.b, "\tchar in[%d];\n\tgetarg(0, in, %d);\n", inputLen, inputLen)
	}
	nl := 2 + g.r.n(3)
	for i := 0; i < nl; i++ {
		name := fmt.Sprintf("v%d", i)
		g.locals = append(g.locals, name)
		init := fmt.Sprintf("%d", g.r.n(10))
		if inputLen > 0 {
			init = fmt.Sprintf("in[%d]", i%inputLen)
		}
		fmt.Fprintf(&g.b, "\tint %s = %s;\n", name, init)
	}
	if g.r.pct(40) {
		a := genArr{name: "la", size: 2 + g.r.n(5)}
		g.arrays = append(g.arrays, a)
		fmt.Fprintf(&g.b, "\tint %s[%d];\n", a.name, a.size)
	}
	ns := 3 + g.r.n(6)
	for i := 0; i < ns; i++ {
		g.stmt(1)
	}
	if inputLen > 0 {
		fmt.Fprintf(&g.b, "\tif (%s) {\n\t\tcrash(1);\n\t}\n", g.cond())
	}
	fmt.Fprintf(&g.b, "\texit(%s);\n\treturn 0;\n}\n", g.expr(0))
	return g.b.String()
}

// genHelper emits one two-parameter helper whose body uses only its
// parameters and the globals, so it is valid regardless of main's locals.
func (g *genProg) genHelper(name string) {
	savedLocals, savedArrays := g.locals, g.arrays
	g.locals = []string{"a", "b"}
	g.arrays = nil // helper bodies index global arrays only
	for _, a := range savedArrays {
		if strings.HasPrefix(a.name, "ga") {
			g.arrays = append(g.arrays, a)
		}
	}
	fmt.Fprintf(&g.b, "int %s(int a, int b) {\n", name)
	ns := 1 + g.r.n(3)
	for i := 0; i < ns; i++ {
		g.stmt(1)
	}
	fmt.Fprintf(&g.b, "\treturn %s;\n}\n", g.expr(0))
	g.locals, g.arrays = savedLocals, savedArrays
	g.funcs = append(g.funcs, name)
}

// lvalue picks an assignable scalar: a free local or a global.
func (g *genProg) lvalue() string {
	for tries := 0; tries < 4; tries++ {
		pool := len(g.locals) + len(g.globals)
		k := g.r.n(pool)
		var name string
		if k < len(g.locals) {
			name = g.locals[k]
		} else {
			name = g.globals[k-len(g.locals)]
		}
		if !g.frozen[name] {
			return name
		}
	}
	return g.globals[0]
}

// indexExpr renders an array subscript. Indexes are almost always reduced
// into range; the rare raw index exercises bounds-check crash parity.
func (g *genProg) indexExpr(a genArr) string {
	raw := g.r.pct(8)
	idx := g.expr(2)
	switch {
	case g.safe:
		return fmt.Sprintf("%s[%d]", a.name, len(idx)%a.size)
	case raw:
		return fmt.Sprintf("%s[%s]", a.name, idx)
	}
	// Double mod keeps the index in range even for negative operands
	// (MiniC % truncates toward zero, like C).
	return fmt.Sprintf("%s[((%s) %% %d + %d) %% %d]", a.name, idx, a.size, a.size, a.size)
}

var binOps = []string{"+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&", "||", "&", "|", "^", "<<", ">>"}

// expr renders an integer expression with bounded depth.
func (g *genProg) expr(depth int) string {
	if depth >= 3 || g.r.pct(30) {
		switch g.r.n(4) {
		case 0:
			return fmt.Sprintf("%d", g.r.n(40)-10)
		case 1:
			return g.locals[g.r.n(len(g.locals))]
		case 2:
			return g.globals[g.r.n(len(g.globals))]
		default:
			if len(g.arrays) > 0 {
				return g.indexExpr(g.arrays[g.r.n(len(g.arrays))])
			}
			return g.locals[g.r.n(len(g.locals))]
		}
	}
	switch g.r.n(8) {
	case 0:
		op := []string{"-", "!", "~"}[g.r.n(3)]
		return fmt.Sprintf("%s(%s)", op, g.expr(depth+1))
	case 1:
		if len(g.funcs) > 0 {
			fn := g.funcs[g.r.n(len(g.funcs))]
			return fmt.Sprintf("%s(%s, %s)", fn, g.expr(depth+1), g.expr(depth+1))
		}
		fallthrough
	default:
		op := binOps[g.r.n(len(binOps))]
		l, rhs := g.expr(depth+1), g.expr(depth+1)
		if op == "/" || op == "%" {
			// Bias toward defined division; the unguarded rest probes
			// divide-by-zero crash parity.
			if g.r.pct(80) || g.safe {
				rhs = fmt.Sprintf("((%s) | 1)", rhs)
			}
		}
		if op == "<<" || op == ">>" {
			rhs = fmt.Sprintf("((%s) & 7)", rhs)
		}
		return fmt.Sprintf("(%s %s %s)", l, op, rhs)
	}
}

// cond renders a branch condition (any int expression works; comparisons
// dominate so RCmpBranch fusion is on the common path).
func (g *genProg) cond() string {
	if g.r.pct(70) {
		op := []string{"<", "<=", ">", ">=", "==", "!="}[g.r.n(6)]
		return fmt.Sprintf("%s %s %s", g.expr(1), op, g.expr(1))
	}
	return g.expr(1)
}

// stmt renders one statement at the given indent depth.
func (g *genProg) stmt(ind int) {
	tab := strings.Repeat("\t", ind)
	if g.depth >= 3 { // too deep: simple statement only
		fmt.Fprintf(&g.b, "%s%s = %s;\n", tab, g.lvalue(), g.expr(0))
		return
	}
	switch g.r.n(10) {
	case 0, 1:
		fmt.Fprintf(&g.b, "%s%s = %s;\n", tab, g.lvalue(), g.expr(0))
	case 2:
		op := []string{"+=", "-=", "*=", "/=", "%="}[g.r.n(5)]
		rhs := g.expr(1)
		if op == "/=" || op == "%=" {
			rhs = fmt.Sprintf("(%s) | 1", rhs)
		}
		fmt.Fprintf(&g.b, "%s%s %s %s;\n", tab, g.lvalue(), op, rhs)
	case 3:
		if g.r.pct(50) {
			fmt.Fprintf(&g.b, "%s%s++;\n", tab, g.lvalue())
		} else {
			fmt.Fprintf(&g.b, "%s%s--;\n", tab, g.lvalue())
		}
	case 4:
		if len(g.arrays) > 0 {
			a := g.arrays[g.r.n(len(g.arrays))]
			if g.r.pct(30) {
				fmt.Fprintf(&g.b, "%s%s += %s;\n", tab, g.indexExpr(a), g.expr(1))
			} else {
				fmt.Fprintf(&g.b, "%s%s = %s;\n", tab, g.indexExpr(a), g.expr(1))
			}
		} else {
			fmt.Fprintf(&g.b, "%s%s = %s;\n", tab, g.lvalue(), g.expr(0))
		}
	case 5, 6:
		g.depth++
		fmt.Fprintf(&g.b, "%sif (%s) {\n", tab, g.cond())
		g.stmt(ind + 1)
		if g.r.pct(40) {
			fmt.Fprintf(&g.b, "%s} else {\n", tab)
			g.stmt(ind + 1)
		}
		fmt.Fprintf(&g.b, "%s}\n", tab)
		g.depth--
	case 7:
		// Counted loop over a frozen induction variable; the body cannot
		// reassign it, so termination is structural.
		iv := g.lvalue()
		if g.frozen[iv] {
			fmt.Fprintf(&g.b, "%s%s = %s;\n", tab, g.lvalue(), g.expr(0))
			return
		}
		g.depth++
		g.frozen[iv] = true
		fmt.Fprintf(&g.b, "%sfor (%s = 0; %s < %d; %s++) {\n", tab, iv, iv, 2+g.r.n(6), iv)
		for k := 1 + g.r.n(2); k > 0; k-- {
			g.stmt(ind + 1)
		}
		if g.r.pct(25) {
			if g.r.pct(50) {
				fmt.Fprintf(&g.b, "%s\tif (%s) { break; }\n", tab, g.cond())
			} else {
				fmt.Fprintf(&g.b, "%s\tif (%s) { continue; }\n", tab, g.cond())
			}
		}
		fmt.Fprintf(&g.b, "%s}\n", tab)
		delete(g.frozen, iv)
		g.depth--
	case 8:
		fmt.Fprintf(&g.b, "%sprint_int(%s);\n", tab, g.expr(1))
	case 9:
		if len(g.funcs) > 0 {
			fn := g.funcs[g.r.n(len(g.funcs))]
			fmt.Fprintf(&g.b, "%s%s = %s(%s, %s);\n", tab, g.lvalue(), fn, g.expr(1), g.expr(1))
		} else {
			fmt.Fprintf(&g.b, "%s%s = %s;\n", tab, g.lvalue(), g.expr(0))
		}
	}
}

// fuzzBudget bounds every generated run; generated while-free loops terminate
// structurally but total cost is unbounded, and budget trips are themselves a
// parity obligation.
const fuzzBudget = 4000

// checkSeedParity generates the program for seed and asserts engine parity at
// the full budget and at a pseudo-random cut point inside the run, which
// lands budget trips in the middle of fused charge batches. It returns what
// the user-site logger logged over both runs.
func checkSeedParity(t *testing.T, seed uint64) logCover {
	t.Helper()
	src := generate(seed)
	u, err := lang.ParseUnit("fuzz.mc", lang.RegionApp, src)
	if err != nil {
		t.Fatalf("seed %d: generator emitted invalid MiniC: %v\n%s", seed, err, src)
	}
	prog, err := lang.Link([]*lang.Unit{u})
	if err != nil {
		t.Fatalf("seed %d: link: %v\n%s", seed, err, src)
	}
	cfg := oskernel.Config{}
	fullSteps, cover := fuzzParity(t, seed, src, prog, cfg, fuzzBudget)
	if fullSteps > 1 {
		cut := 1 + int64(seed%uint64(fullSteps))
		_, c := fuzzParity(t, seed, src, prog, cfg, cut)
		cover.bits += c.bits
		cover.flushes += c.flushes
	}
	return cover
}

// fuzzParity runs prog under both engines at the given budget and requires
// identical results, branch traces and syscall counts, then checks the
// user-site logger under the same budget (checkLogParity). It returns the
// step count for cut-point derivation and what the logger logged.
func fuzzParity(t *testing.T, seed uint64, src string, prog *lang.Program, cfg oskernel.Config, budget int64) (int64, logCover) {
	t.Helper()
	tSink, bSink := &traceSink{}, &traceSink{}
	tRes, tErr, tSys := runEngineWith(vm.TreeFactory, prog, cfg, budget, tSink)
	bRes, bErr, bSys := runEngineWith(ir.Engine, prog, cfg, budget, bSink)
	if (tErr == nil) != (bErr == nil) {
		t.Fatalf("seed %d budget %d: error parity: tree=%v bytecode=%v\n%s", seed, budget, tErr, bErr, src)
	}
	if tErr != nil {
		if tErr.Error() != bErr.Error() {
			t.Fatalf("seed %d budget %d: error text: tree=%v bytecode=%v\n%s", seed, budget, tErr, bErr, src)
		}
		return 0, checkLogParity(t, seed, src, prog, cfg, budget, tRes, tErr, tSink.dirs)
	}
	if !reflect.DeepEqual(tRes, bRes) {
		t.Fatalf("seed %d budget %d: result parity:\ntree:     %+v\nbytecode: %+v\n%s", seed, budget, tRes, bRes, src)
	}
	if !reflect.DeepEqual(tSink.events, bSink.events) {
		t.Fatalf("seed %d budget %d: trace parity (%d vs %d events)\n%s", seed, budget, len(tSink.events), len(bSink.events), src)
	}
	if tSys != bSys {
		t.Fatalf("seed %d budget %d: syscall count parity: tree=%d bytecode=%d\n%s", seed, budget, tSys, bSys, src)
	}
	return tRes.Steps, checkLogParity(t, seed, src, prog, cfg, budget, tRes, tErr, tSink.dirs)
}

// logCover is what the user-site logger logged in checked runs.
type logCover struct {
	bits    int64
	flushes int
}

// logTable draws the seed's branch table for the user-site logger: each
// site of prog is instrumented with even odds, and the table's length is
// drawn too, so it may stop short of the last site or run past it.
func logTable(seed uint64, prog *lang.Program) []bool {
	r := &genRand{s: seed ^ 0x1095_7AB1E}
	tab := make([]bool, r.n(len(prog.Branches)+2))
	for i := range tab {
		tab[i] = r.pct(50)
	}
	return tab
}

// oracleLog is the reference user-site logger, built from a sink's view
// of the run: the run's branch events, filtered through tab and appended
// to a writer of the given flush size. Both engines' inline logging must
// reproduce it.
func oracleLog(dirs []branchDir, tab []bool, size int) *trace.Writer {
	w := trace.NewWriterSize(size)
	for _, d := range dirs {
		if int(d.id) < len(tab) && tab[d.id] {
			w.Append(d.taken)
		}
	}
	return w
}

// checkLogParity runs prog with no sink under the seed's branch table and
// a small flush buffer (so that runs flush) on both engines. The logger
// must not change the run (its result and error are those of the sink run
// that produced dirs), and both engines must log the oracle's trace: the
// same bits, bit count, flushes and instrumented-execution count.
func checkLogParity(t *testing.T, seed uint64, src string, prog *lang.Program, cfg oskernel.Config, budget int64, want vm.Result, wantErr error, dirs []branchDir) logCover {
	t.Helper()
	tab := logTable(seed, prog)
	size := 1 + int(seed%4)
	ref := oracleLog(dirs, tab, size)
	refFlushes, refBits := ref.Flushes(), ref.Bits()
	refTrace := ref.Finish()
	for _, eng := range []struct {
		name string
		f    vm.Factory
	}{{"tree", vm.TreeFactory}, {"bytecode", ir.Engine}} {
		w := trace.NewWriterSize(size)
		log := vm.Logger{Table: tab, Trace: w}
		res, err := eng.f(prog, vm.Options{Kernel: oskernel.New(cfg), Log: log, MaxSteps: budget}).Run()
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(res, want) {
			t.Fatalf("seed %d budget %d: %s logging run differs from the sink run:\nlogged: %+v %v\nsink:   %+v %v\n%s",
				seed, budget, eng.name, res, err, want, wantErr, src)
		}
		if w.Bits() != refBits || w.Flushes() != refFlushes {
			t.Fatalf("seed %d budget %d: %s logged %d instrumented executions in %d flushes, oracle %d in %d\n%s",
				seed, budget, eng.name, w.Bits(), w.Flushes(), refBits, refFlushes, src)
		}
		if got := w.Finish(); got.Len() != refTrace.Len() || !bytes.Equal(got.Bytes(), refTrace.Bytes()) {
			t.Fatalf("seed %d budget %d: %s trace %v (% x), oracle %v (% x)\n%s",
				seed, budget, eng.name, got, got.Bytes(), refTrace, refTrace.Bytes(), src)
		}
	}
	return logCover{refBits, refFlushes}
}

// followSink steers a run the way a replay that follows the log does: it
// answers vm.ErrFollowLog on a deterministic subset of branch executions (a
// hash of the seed, the site and that site's execution count), and on odd
// seeds aborts the run at a seed-chosen branch execution. It records every
// event with its answer, so the trace is the branch sequence actually run.
type followSink struct {
	seed    uint64
	abortAt int
	execs   map[lang.BranchID]uint64
	events  []string
}

func newFollowSink(seed uint64) *followSink {
	s := &followSink{seed: seed, execs: map[lang.BranchID]uint64{}}
	if seed%2 == 1 {
		s.abortAt = 1 + int(seed%53)
	}
	return s
}

func (s *followSink) OnBranch(site *lang.BranchSite, cond vm.Value, taken bool) error {
	n := s.execs[site.ID]
	s.execs[site.ID] = n + 1
	h := (&genRand{s: s.seed ^ uint64(site.ID)<<40 ^ n}).next()
	var err error
	switch {
	case s.abortAt > 0 && len(s.events)+1 >= s.abortAt:
		err = vm.ErrAbortRun
	case h%4 == 0:
		err = vm.ErrFollowLog
	}
	s.events = append(s.events, fmt.Sprintf("b%d:%v:%d:%v:%v", site.ID, taken, cond.I, cond.Sym, err))
	return err
}

// checkSeedFollowParity runs the seed's program under both engines with a
// followSink each and requires identical results (steps, stdout, crash or
// abort), branch sequences and syscall counts. It returns the bytecode
// run's result and sink.
func checkSeedFollowParity(t *testing.T, seed uint64) (vm.Result, *followSink) {
	t.Helper()
	src := generate(seed)
	prog := mustGen(t, seed)
	cfg := oskernel.Config{}
	tSink, bSink := newFollowSink(seed), newFollowSink(seed)
	tRes, tErr, tSys := runEngineWith(vm.TreeFactory, prog, cfg, fuzzBudget, tSink)
	bRes, bErr, bSys := runEngineWith(ir.Engine, prog, cfg, fuzzBudget, bSink)
	if fmt.Sprint(tErr) != fmt.Sprint(bErr) {
		t.Fatalf("seed %d: follow error parity: tree=%v bytecode=%v\n%s", seed, tErr, bErr, src)
	}
	if !reflect.DeepEqual(tRes, bRes) {
		t.Fatalf("seed %d: follow result parity:\ntree:     %+v\nbytecode: %+v\n%s", seed, tRes, bRes, src)
	}
	if !reflect.DeepEqual(tSink.events, bSink.events) {
		t.Fatalf("seed %d: follow branch sequence parity (%d vs %d events):\ntree:     %v\nbytecode: %v\n%s",
			seed, len(tSink.events), len(bSink.events), tSink.events, bSink.events, src)
	}
	if tSys != bSys {
		t.Fatalf("seed %d: follow syscall count parity: tree=%d bytecode=%d\n%s", seed, tSys, bSys, src)
	}
	return bRes, bSink
}

// FuzzEngineParity is the open-ended differential fuzzer. The input is a
// generator seed, not program text, so every mutation the fuzzer tries is a
// valid program and coverage feedback steers the seed space. Each seed is
// checked with a recording sink and with a followSink.
func FuzzEngineParity(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 1337, 99991, 1 << 32, 0xDEADBEEF} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkSeedParity(t, seed)
		checkSeedFollowParity(t, seed)
	})
}

// TestGenParityFixedSeeds is the deterministic CI slice of the fuzz space:
// the same 256 seeds every run, so a parity regression in generated-program
// territory fails the ordinary test suite without a fuzzing engine.
func TestGenParityFixedSeeds(t *testing.T) {
	var bits int64
	var flushes int
	for seed := uint64(0); seed < 256; seed++ {
		c := checkSeedParity(t, seed)
		bits += c.bits
		flushes += c.flushes
	}
	// The logger arm must log and flush, not pass vacuously.
	if bits == 0 || flushes == 0 {
		t.Fatalf("fixed seeds logged %d bits in %d flushes; want both nonzero", bits, flushes)
	}
	t.Logf("user-site logger: %d bits, %d flushes", bits, flushes)
}

// TestFollowLogParityFixedSeeds is the deterministic slice of the fuzz
// space under a followSink: both engines must take the other direction at
// exactly the branch executions the sink answers vm.ErrFollowLog, and
// stop at the same one when it answers vm.ErrAbortRun.
func TestFollowLogParityFixedSeeds(t *testing.T) {
	flips, aborts := 0, 0
	for seed := uint64(0); seed < 256; seed++ {
		res, sink := checkSeedFollowParity(t, seed)
		for _, ev := range sink.events {
			if strings.HasSuffix(ev, vm.ErrFollowLog.Error()) {
				flips++
			}
		}
		if res.Aborted {
			aborts++
		}
	}
	// The slice must actually exercise the seam, not pass vacuously.
	if flips == 0 || aborts == 0 {
		t.Fatalf("fixed seeds steered %d branches and aborted %d runs; want both nonzero", flips, aborts)
	}
}

// mustGen parses and links the seed's generated program.
func mustGen(t *testing.T, seed uint64) *lang.Program {
	t.Helper()
	u, err := lang.ParseUnit("fuzz.mc", lang.RegionApp, generate(seed))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Link([]*lang.Unit{u})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}
