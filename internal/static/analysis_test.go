package static

import (
	"testing"

	"pathlog/internal/lang"
)

func compile(t *testing.T, srcs map[string]lang.Region) *lang.Program {
	t.Helper()
	var units []*lang.Unit
	// Deterministic order: app units first, then lib.
	for _, region := range []lang.Region{lang.RegionApp, lang.RegionLib} {
		for name, r := range srcs {
			if r == region {
				u, err := lang.ParseUnit("u", region, name)
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				units = append(units, u)
			}
		}
	}
	p, err := lang.Link(units)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return p
}

func compileApp(t *testing.T, src string) *lang.Program {
	t.Helper()
	return compile(t, map[string]lang.Region{src: lang.RegionApp})
}

func branchAtLine(p *lang.Program, line int) *lang.BranchSite {
	for _, b := range p.Branches {
		if b.Pos.Line == line {
			return b
		}
	}
	return nil
}

func TestListing1Static(t *testing.T) {
	prog := compileApp(t, `
int fibonacci(int n) {
	int a = 0;
	int b = 1;
	int i;
	for (i = 0; i < n; i++) { int t2 = a + b; a = b; b = t2; }
	return a;
}
int main() {
	char opt[8];
	getarg(0, opt, 8);
	int result = 0;
	if (opt[0] == 'a') { result = fibonacci(20); }
	else if (opt[0] == 'b') { result = fibonacci(40); }
	print_int(result);
	return 0;
}
`)
	rep := Analyze(prog, Options{})
	ifA := branchAtLine(prog, 13)
	ifB := branchAtLine(prog, 14)
	loop := branchAtLine(prog, 6)
	if !rep.SymbolicBranches[ifA.ID] || !rep.SymbolicBranches[ifB.ID] {
		t.Error("option branches must be symbolic")
	}
	if rep.SymbolicBranches[loop.ID] {
		t.Error("fibonacci loop must stay concrete: called with constants only")
	}
	if rep.CountSymbolic() != 2 {
		t.Errorf("symbolic count: %d (%v)", rep.CountSymbolic(), rep.SymbolicBranchIDs())
	}
}

func TestPerPatternContexts(t *testing.T) {
	// check() is called with both a constant and input. Its internal branch
	// becomes symbolic (some context is symbolic), but the return value is
	// tracked per context: y from check(5) stays concrete, z from
	// check(input) is symbolic.
	prog := compileApp(t, `
int check(int v) {
	if (v > 10) { return v; }
	return 0;
}
int main() {
	char a[4];
	getarg(0, a, 4);
	int y = check(5);
	int z = check(a[0]);
	if (y == 1) { print_int(1); }
	if (z == 1) { print_int(2); }
	return 0;
}
`)
	rep := Analyze(prog, Options{})
	inner := branchAtLine(prog, 3)
	onY := branchAtLine(prog, 11)
	onZ := branchAtLine(prog, 12)
	if !rep.SymbolicBranches[inner.ID] {
		t.Error("check's branch must be symbolic (symbolic context exists)")
	}
	if rep.SymbolicBranches[onY.ID] {
		t.Error("branch on check(5) result must stay concrete (per-pattern summary)")
	}
	if !rep.SymbolicBranches[onZ.ID] {
		t.Error("branch on check(input) result must be symbolic")
	}
	if rep.Contexts < 3 { // main:0, check:0, check:1
		t.Errorf("contexts: %d", rep.Contexts)
	}
}

func TestTaintThroughBuffer(t *testing.T) {
	// Input flows through a buffer and a length loop, like strlen.
	prog := compileApp(t, `
int len_of(char *s) {
	int n = 0;
	while (s[n] != '\0') { n++; }
	return n;
}
int main() {
	char a[16];
	char copy[16];
	getarg(0, a, 16);
	int i;
	for (i = 0; i < 15; i++) { copy[i] = a[i]; }
	int n = len_of(copy);
	if (n > 3) { print_int(n); }
	return 0;
}
`)
	rep := Analyze(prog, Options{})
	strlenLoop := branchAtLine(prog, 4)
	onLen := branchAtLine(prog, 14)
	copyLoop := branchAtLine(prog, 12)
	if !rep.SymbolicBranches[strlenLoop.ID] {
		t.Error("strlen loop over tainted buffer must be symbolic")
	}
	// The computed length flows only via control dependence, which dataflow
	// taint (dynamic and static alike) does not track: the path through the
	// strlen loop already encodes the length, so replay stays sound with the
	// loop branches logged and this branch concrete.
	if rep.SymbolicBranches[onLen.ID] {
		t.Error("branch on counted length is control- not data-dependent; must stay concrete")
	}
	if rep.SymbolicBranches[copyLoop.ID] {
		t.Error("copy loop bound is constant; must stay concrete")
	}
}

func TestGlobalTaint(t *testing.T) {
	prog := compileApp(t, `
int mode = 0;
void set_mode(int m) { mode = m; }
int main() {
	char a[4];
	getarg(0, a, 4);
	set_mode(a[0]);
	if (mode == 7) { print_int(1); }
	return 0;
}
`)
	rep := Analyze(prog, Options{})
	onMode := branchAtLine(prog, 8)
	if !rep.SymbolicBranches[onMode.ID] {
		t.Error("branch on tainted global must be symbolic")
	}
}

func TestPointerReturnTaint(t *testing.T) {
	// A function returning a pointer into its (tainted) argument: loads
	// through the returned pointer must be symbolic — the paper's reason for
	// combining dataflow with points-to analysis.
	prog := compileApp(t, `
char *skip_spaces(char *s) {
	while (*s == ' ') { s++; }
	return s;
}
int main() {
	char a[16];
	getarg(0, a, 16);
	char *p = skip_spaces(a);
	if (*p == 'x') { print_int(1); }
	return 0;
}
`)
	rep := Analyze(prog, Options{})
	onDeref := branchAtLine(prog, 10)
	if onDeref == nil {
		t.Fatal("no branch at line 10")
	}
	if !rep.SymbolicBranches[onDeref.ID] {
		t.Error("deref of pointer into tainted buffer must be symbolic")
	}
}

func TestOverApproximationByAliasing(t *testing.T) {
	// Field-insensitivity: tainting one cell taints the object, so a branch
	// reading an untouched cell is (conservatively) symbolic. Dynamic
	// analysis would know better — this is exactly the imprecision that
	// makes the `static` method instrument more than needed (§2.2).
	prog := compileApp(t, `
int main() {
	char buf[16];
	char a[4];
	getarg(0, a, 4);
	buf[0] = 9;
	buf[1] = a[0];
	if (buf[0] == 9) { print_int(1); }
	return 0;
}
`)
	rep := Analyze(prog, Options{})
	onCell := branchAtLine(prog, 8)
	if !rep.SymbolicBranches[onCell.ID] {
		t.Error("whole-object taint should over-approximate this branch as symbolic")
	}
}

func TestLogicBranchMarking(t *testing.T) {
	prog := compileApp(t, `
int main() {
	char a[4];
	getarg(0, a, 4);
	int n = 3;
	if (a[0] == 'x' && n > 2) { print_int(1); }
	if (n > 2 && a[0] == 'x') { print_int(2); }
	return 0;
}
`)
	rep := Analyze(prog, Options{})
	// Line 6: && guard branches on a[0]=='x' (symbolic); the if branches on
	// the whole condition (symbolic).
	// Line 7: && guard branches on n>2 (concrete); the if is symbolic.
	var andSites, ifSites []*lang.BranchSite
	for _, b := range prog.Branches {
		switch b.Kind {
		case lang.BranchAnd:
			andSites = append(andSites, b)
		case lang.BranchIf:
			ifSites = append(ifSites, b)
		}
	}
	if len(andSites) != 2 || len(ifSites) != 2 {
		t.Fatalf("sites: %d and, %d if", len(andSites), len(ifSites))
	}
	if !rep.SymbolicBranches[andSites[0].ID] {
		t.Error("first && guard (symbolic left) must be symbolic")
	}
	if rep.SymbolicBranches[andSites[1].ID] {
		t.Error("second && guard (concrete left) must stay concrete")
	}
	for _, b := range ifSites {
		if !rep.SymbolicBranches[b.ID] {
			t.Errorf("if at %v must be symbolic", b.Pos)
		}
	}
}

func TestLibAsSymbolicMode(t *testing.T) {
	app := `
int main() {
	char a[8];
	getarg(0, a, 8);
	int n = libstrlen(a);
	if (n > 2) { print_int(n); }
	int k = 5;
	if (k == 5) { print_int(k); }
	return 0;
}
`
	lib := `
int libstrlen(char *s) {
	int n = 0;
	while (s[n] != '\0') { n++; }
	return n;
}
`
	prog := compile(t, map[string]lang.Region{app: lang.RegionApp, lib: lang.RegionLib})
	rep := Analyze(prog, Options{LibAsSymbolic: true})

	// Every lib branch is symbolic by fiat.
	for _, b := range prog.BranchesIn(lang.RegionLib) {
		if !rep.SymbolicBranches[b.ID] {
			t.Errorf("lib branch %v must be symbolic in lib-as-symbolic mode", b)
		}
	}
	// The app branch on the lib return over tainted data must be symbolic.
	var appIfs []*lang.BranchSite
	for _, b := range prog.BranchesIn(lang.RegionApp) {
		appIfs = append(appIfs, b)
	}
	if len(appIfs) != 2 {
		t.Fatalf("app branches: %d", len(appIfs))
	}
	if !rep.SymbolicBranches[appIfs[0].ID] {
		t.Error("branch on libstrlen(tainted) must be symbolic")
	}
	if rep.SymbolicBranches[appIfs[1].ID] {
		t.Error("purely concrete app branch must stay concrete")
	}
}

func TestFullLibAnalysisIsMorePrecise(t *testing.T) {
	appSrc := `
int main() {
	char a[8];
	getarg(0, a, 8);
	int n = firstbyte(a);
	if (n == 'x') { print_int(n); }
	int z = zero();
	if (z == 0) { print_int(z); }
	return 0;
}
`
	libSrc := `
int firstbyte(char *s) { return s[0]; }
int zero() { return 0; }
`
	prog := compile(t, map[string]lang.Region{appSrc: lang.RegionApp, libSrc: lang.RegionLib})

	full := Analyze(prog, Options{})
	conservative := Analyze(prog, Options{LibAsSymbolic: true})
	if full.CountSymbolic() > conservative.CountSymbolic() {
		t.Errorf("full analysis should label fewer branches symbolic: %d vs %d",
			full.CountSymbolic(), conservative.CountSymbolic())
	}
	// zero() returns a constant: with full analysis the branch on z stays
	// concrete.
	var zBranch *lang.BranchSite
	for _, b := range prog.BranchesIn(lang.RegionApp) {
		if b.Pos.Line == 8 {
			zBranch = b
		}
	}
	if zBranch == nil {
		t.Fatal("no branch at line 8")
	}
	if full.SymbolicBranches[zBranch.ID] {
		t.Error("branch on zero() must be concrete under full analysis")
	}
}

func TestSoundnessOnSelectAndRead(t *testing.T) {
	prog := compileApp(t, `
int main() {
	int ready[8];
	int n = select_ready(ready, 8);
	if (n > 0) { print_int(n); }       // environment-dependent: symbolic
	char buf[32];
	int fd = open("data");
	if (fd >= 0) {                     // fd value: concrete
		int r = read(fd, buf, 32);
		if (r > 0) { print_int(r); }   // input-dependent: symbolic
		if (buf[0] == 'h') { print_int(2); }  // input bytes: symbolic
	}
	return 0;
}
`)
	rep := Analyze(prog, Options{})
	want := map[int]bool{5: true, 8: false, 10: true, 11: true}
	for line, expect := range want {
		b := branchAtLine(prog, line)
		if b == nil {
			t.Fatalf("no branch at line %d", line)
		}
		if rep.SymbolicBranches[b.ID] != expect {
			t.Errorf("line %d: symbolic=%v want %v", line, rep.SymbolicBranches[b.ID], expect)
		}
	}
}

func TestRecursionTerminates(t *testing.T) {
	prog := compileApp(t, `
int fact(int n) {
	if (n <= 1) { return 1; }
	return n * fact(n - 1);
}
int main() {
	char a[4];
	getarg(0, a, 4);
	exit(fact(a[0] % 5));
	return 0;
}
`)
	rep := Analyze(prog, Options{})
	inner := branchAtLine(prog, 3)
	if !rep.SymbolicBranches[inner.ID] {
		t.Error("recursive branch on input must be symbolic")
	}
	if rep.Passes >= maxPasses {
		t.Errorf("fixpoint did not converge: %d passes", rep.Passes)
	}
}
