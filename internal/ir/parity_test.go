package ir_test

import (
	"fmt"
	"reflect"
	"testing"

	"pathlog/internal/ir"
	"pathlog/internal/lang"
	"pathlog/internal/oskernel"
	"pathlog/internal/vm"
)

// The differential harness: every program runs under the tree walker (the
// oracle) and the bytecode VM with identical kernels, and everything
// observable must match bit for bit — results, step counts, branch traces,
// stdout, syscall counts.

func parse(t *testing.T, src string) *lang.Program {
	t.Helper()
	u, err := lang.ParseUnit("test.mc", lang.RegionApp, src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := lang.Link([]*lang.Unit{u})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return p
}

// traceSink records every branch event.
type traceSink struct {
	events []string
	// dirs holds the same events as (site, direction) pairs, the input of
	// the user-site logger's oracle (oracleLog).
	dirs []branchDir
}

type branchDir struct {
	id    lang.BranchID
	taken bool
}

func (s *traceSink) OnBranch(site *lang.BranchSite, cond vm.Value, taken bool) error {
	s.events = append(s.events, fmt.Sprintf("b%d:%v:%d:%v", site.ID, taken, cond.I, cond.Sym))
	s.dirs = append(s.dirs, branchDir{site.ID, taken})
	return nil
}

// runEngine executes prog once under the given factory with a fresh kernel.
func runEngine(t *testing.T, f vm.Factory, prog *lang.Program, cfg oskernel.Config, maxSteps int64) (vm.Result, error, []string, int64) {
	t.Helper()
	sink := &traceSink{}
	res, err, sys := runEngineWith(f, prog, cfg, maxSteps, sink)
	return res, err, sink.events, sys
}

// runEngineWith executes prog once under the given factory and sink with a
// fresh kernel, returning the syscall count beside the result.
func runEngineWith(f vm.Factory, prog *lang.Program, cfg oskernel.Config, maxSteps int64, sink vm.BranchSink) (vm.Result, error, int64) {
	kern := oskernel.New(cfg)
	res, err := f(prog, vm.Options{Kernel: kern, Sink: sink, MaxSteps: maxSteps}).Run()
	return res, err, kern.NSyscalls
}

// assertParity runs prog under both engines and requires identical outcomes.
func assertParity(t *testing.T, prog *lang.Program, cfg oskernel.Config, maxSteps int64) {
	t.Helper()
	tRes, tErr, tTrace, tSys := runEngine(t, vm.TreeFactory, prog, cfg, maxSteps)
	bRes, bErr, bTrace, bSys := runEngine(t, ir.Engine, prog, cfg, maxSteps)
	if (tErr == nil) != (bErr == nil) {
		t.Fatalf("error parity: tree=%v bytecode=%v", tErr, bErr)
	}
	if tErr != nil {
		if tErr.Error() != bErr.Error() {
			t.Fatalf("error text: tree=%v bytecode=%v", tErr, bErr)
		}
		return
	}
	if !reflect.DeepEqual(tRes, bRes) {
		t.Fatalf("result parity:\ntree:     %+v\nbytecode: %+v", tRes, bRes)
	}
	if !reflect.DeepEqual(tTrace, bTrace) {
		t.Fatalf("trace parity (%d vs %d events):\ntree:     %v\nbytecode: %v",
			len(tTrace), len(bTrace), tTrace, bTrace)
	}
	if tSys != bSys {
		t.Fatalf("syscall count parity: tree=%d bytecode=%d", tSys, bSys)
	}
}

var parityPrograms = map[string]string{
	"arith": `int main() { exit((2 + 3 * 4 - 1) / 2 % 5); return 0; }`,
	"bitops": `int main() {
		exit(((0xF0 | 0x0F) ^ 0xFF) + (1 << 4) + (256 >> 4) + (~0 + 1) + (12 & 10));
		return 0; }`,
	"fib": `
		int fib(int n) {
			if (n < 2) { return n; }
			return fib(n - 1) + fib(n - 2);
		}
		int main() { exit(fib(12)); return 0; }`,
	"loops": `int main() {
		int s = 0;
		int i;
		for (i = 1; i <= 10; i++) { s += i; }
		while (s > 50) { s -= 1; }
		int j = 0;
		for (;;) { j++; if (j >= 3) { break; } }
		s *= 2; s /= 4; s %= 7;
		exit(s * 10 + j);
		return 0; }`,
	"breakcontinue": `int main() {
		int s = 0;
		int i;
		for (i = 0; i < 10; i++) {
			if (i % 2 == 0) { continue; }
			if (i > 7) { break; }
			s += i;
		}
		int k = 0;
		while (k < 100) { k++; if (k == 5) { break; } }
		exit(s + k);
		return 0; }`,
	"nested-loops": `int main() {
		int s = 0;
		int i; int j;
		for (i = 0; i < 5; i++) {
			for (j = 0; j < 5; j++) {
				if (j > i) { continue; }
				if (i == 4 && j == 2) { break; }
				s += 1;
			}
		}
		exit(s);
		return 0; }`,
	"arrays": `int main() {
		int a[8];
		int i;
		for (i = 0; i < 8; i++) { a[i] = i * i; }
		int *p = &a[3];
		*p = 100;
		p++;
		exit(a[3] + *p + a[7]);
		return 0; }`,
	"globals": `
		int g = 7;
		int h = 3 + 4;
		int tab[4];
		int bump() { g += 1; return g; }
		int main() {
			tab[0] = bump(); tab[1] = bump();
			exit(g * 100 + tab[0] + tab[1] + h);
			return 0; }`,
	"strings": `int main() {
		print_str("hello ");
		print_str("world");
		print_char(10);
		int i;
		for (i = 0; i < 2; i++) { print_str("x"); }
		exit(0);
		return 0; }`,
	"logic": `int main() {
		int a = 3; int b = 0;
		int r1 = a && b;
		int r2 = a || b;
		int r3 = b && a;
		int r4 = b || b;
		int c = 0;
		if (a > 1 && b == 0 || c) { c = 9; }
		exit(r1 + r2 * 10 + r3 * 100 + r4 * 1000 + c);
		return 0; }`,
	"incdec": `int main() {
		int a[3];
		a[0] = 5;
		int i = 0;
		int x = a[i++];
		int y = a[i--];
		int *p = &a[0];
		int z = (*p)++;
		exit(x * 100 + y * 10 + z + a[0]);
		return 0; }`,
	"deref-chain": `int main() {
		int v = 42;
		int *p = &v;
		*p = 43;
		int w = *p + v;
		*p += 2;
		exit(w + v);
		return 0; }`,
	"crash-oob": `int main() {
		int a[4];
		int i;
		for (i = 0; i <= 4; i++) { a[i] = i; }
		exit(0);
		return 0; }`,
	"crash-null": `int main() {
		int *p = 0;
		exit(*p);
		return 0; }`,
	"crash-div": `int main() {
		int z = 0;
		exit(10 / z);
		return 0; }`,
	"crash-explicit": `int main() {
		int i;
		for (i = 0; i < 3; i++) { }
		crash(42);
		return 0; }`,
	"crash-recursion": `
		int f(int n) { return f(n + 1); }
		int main() { exit(f(0)); return 0; }`,
	"empty-blocks": `int main() {
		int i;
		for (i = 0; i < 3; i++) { { } }
		while (i > 0) { i--; { { } } }
		if (i == 0) { } else { i = 1; }
		if (i == 1) { i = 2; } else { }
		exit(i);
		return 0; }`,
	"args": `int main() {
		int buf[16];
		int n = getarg(0, buf, 16);
		int s = 0;
		int i;
		for (i = 0; i < n; i++) { s += buf[i]; }
		exit(s % 251);
		return 0; }`,
	"files": `int main() {
		int fd = open("data.txt");
		if (fd < 0) { exit(1); }
		int buf[32];
		int n = read(fd, buf, 32);
		int i;
		int s = 0;
		for (i = 0; i < n; i++) { s += buf[i]; }
		write(1, buf, n);
		close(fd);
		exit(s % 97);
		return 0; }`,
}

func parityConfig(name string) oskernel.Config {
	switch name {
	case "args":
		return oskernel.Config{Args: [][]byte{[]byte("hello-arg")}}
	case "files":
		return oskernel.Config{Files: map[string][]byte{"data.txt": []byte("file contents here")}}
	}
	return oskernel.Config{}
}

func TestEngineParity(t *testing.T) {
	for name, src := range parityPrograms {
		t.Run(name, func(t *testing.T) {
			assertParity(t, parse(t, src), parityConfig(name), 0)
		})
	}
}

// TestEngineParityBudgetSweep runs each program under every step budget from
// 1 to its full cost. Any divergence in where charges land — even a single
// step attributed to the wrong edge — shows up as a budget trip in one engine
// but not the other, so this pins the charge schedule exactly.
func TestEngineParityBudgetSweep(t *testing.T) {
	for name, src := range parityPrograms {
		if name == "crash-recursion" {
			continue // cost is dominated by the depth limit; sweep is slow and adds nothing
		}
		t.Run(name, func(t *testing.T) {
			prog := parse(t, src)
			cfg := parityConfig(name)
			full, err, _, _ := runEngine(t, vm.TreeFactory, prog, cfg, 0)
			if err != nil {
				t.Fatalf("full run: %v", err)
			}
			for budget := int64(1); budget <= full.Steps; budget++ {
				tRes, tErr, tTrace, _ := runEngine(t, vm.TreeFactory, prog, cfg, budget)
				bRes, bErr, bTrace, _ := runEngine(t, ir.Engine, prog, cfg, budget)
				if (tErr == nil) != (bErr == nil) {
					t.Fatalf("budget %d: error parity: tree=%v bytecode=%v", budget, tErr, bErr)
				}
				if !reflect.DeepEqual(tRes, bRes) {
					t.Fatalf("budget %d:\ntree:     %+v\nbytecode: %+v", budget, tRes, bRes)
				}
				if !reflect.DeepEqual(tTrace, bTrace) {
					t.Fatalf("budget %d: trace:\ntree:     %v\nbytecode: %v", budget, tTrace, bTrace)
				}
			}
		})
	}
}
