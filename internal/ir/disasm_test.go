package ir_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pathlog/internal/apps"
	"pathlog/internal/ir"
	"pathlog/internal/lang"
)

// disasmSrc exercises every listing feature the golden file pins: string and
// global pools, init code, blocks from if/while control flow, short-circuit
// sites, calls, builtins, arrays and compound assignment.
const disasmSrc = `
int limit = 10;
int total;
int buf[4];

int step(int x) {
	buf[x % 4] += x;
	return x + 1;
}

int main() {
	int i = 0;
	while (i < limit) {
		if (i % 2 == 0 && i > 0) {
			total += i;
		}
		i = step(i);
	}
	print_str("total=");
	print_int(total);
	return 0;
}
`

// TestDisasmGolden pins the flat IR listing of a representative program. The
// listing is pure compiler output (no execution), so any drift means the
// compiler changed shape. Regenerate deliberately with REGEN_GOLDEN=1.
func TestDisasmGolden(t *testing.T) {
	prog, err := ir.Compile(parse(t, disasmSrc))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	got := prog.Disasm()

	golden := filepath.Join("testdata", "disasm.golden")
	if os.Getenv("REGEN_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with REGEN_GOLDEN=1 to create)", err)
	}
	if got != string(want) {
		t.Errorf("disasm drifted from golden file (REGEN_GOLDEN=1 to accept):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestDisasmDeterministic requires two listings of one program to agree.
func TestDisasmDeterministic(t *testing.T) {
	prog, err := ir.Compile(parse(t, disasmSrc))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	a, b := prog.Disasm(), prog.Disasm()
	if a != b {
		t.Fatal("Disasm is not deterministic across calls")
	}
}

// namedProg is one program of the disassembly corpus.
type namedProg struct {
	name string
	prog *lang.Program
}

// disasmCorpus is every program whose register code the disasm tests pin:
// the bundled apps, the parity fixtures, the disasm fixture and the fixed
// generator seeds, sorted by name.
func disasmCorpus(t *testing.T) []namedProg {
	t.Helper()
	var out []namedProg
	for _, cu := range apps.Coreutils(0) {
		out = append(out, namedProg{"app/" + cu.Name, cu.Prog})
	}
	out = append(out,
		namedProg{"app/userver", apps.UServerProgram()},
		namedProg{"app/diff", apps.DiffProgram()},
		namedProg{"app/microloop", apps.MicroLoopProgram()},
		namedProg{"app/microfib", apps.MicroFibProgram()},
		namedProg{"disasm", parse(t, disasmSrc)},
	)
	for name, src := range parityPrograms {
		out = append(out, namedProg{"parity/" + name, parse(t, src)})
	}
	for seed := uint64(0); seed < 256; seed++ {
		out = append(out, namedProg{fmt.Sprintf("gen/%03d", seed), mustGen(t, seed)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// TestDisasmDigests pins the register code of every program in the disasm
// corpus: one `name sha256(Disasm())` line each. The listing is the exact
// instruction array the VM executes, so an unchanged file is proof that a
// compiler change left the executed code unchanged. Regenerate deliberately
// with REGEN_GOLDEN=1.
func TestDisasmDigests(t *testing.T) {
	var b strings.Builder
	for _, np := range disasmCorpus(t) {
		prog, err := ir.Compile(np.prog)
		if err != nil {
			t.Fatalf("%s: compile: %v", np.name, err)
		}
		fmt.Fprintf(&b, "%s %x\n", np.name, sha256.Sum256([]byte(prog.Disasm())))
	}
	got := b.String()

	golden := filepath.Join("testdata", "disasm_digests.txt")
	if os.Getenv("REGEN_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with REGEN_GOLDEN=1 to create)", err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got, "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			t.Errorf("register code drifted (REGEN_GOLDEN=1 to accept): first difference at line %d:\ngot:  %s", i+1, line)
			return
		}
	}
	t.Error("register code drifted (REGEN_GOLDEN=1 to accept): digest file has extra lines")
}

// jumpTargets returns the pcs an instruction may transfer control to.
func jumpTargets(in *ir.RInstr) []int32 {
	switch in.Op {
	case ir.RJump:
		return []int32{in.A}
	case ir.RBranch:
		return []int32{in.B, in.C}
	case ir.RCmpBranch:
		return []int32{in.C, int32(in.Val)}
	case ir.RShortCircuit:
		return []int32{in.C}
	}
	return nil
}

var (
	listingLabel = regexp.MustCompile(`^(L\d+):$`)
	listingInstr = regexp.MustCompile(`^\s+(\d+)\s`)
	listingRef   = regexp.MustCompile(`(?:-> ?|then=|else=)(\S*)`)
)

// TestDisasmCoversAllOps keeps the operand renderer honest over the disasm
// corpus: every opcode and source mode prints with its mnemonic, and every
// jump target lies inside its code body and starts a labeled block that the
// listing names.
func TestDisasmCoversAllOps(t *testing.T) {
	for _, np := range disasmCorpus(t) {
		prog, err := ir.Compile(np.prog)
		if err != nil {
			t.Fatalf("%s: compile: %v", np.name, err)
		}
		listing := prog.Disasm()
		if strings.Contains(listing, "rop?") || strings.Contains(listing, "m?") {
			t.Fatalf("%s: listing has an unnamed opcode or source mode:\n%s", np.name, listing)
		}
		bodies := []codeBody{}
		if len(prog.RInit) > 0 {
			bodies = append(bodies, codeBody{"init", prog.RInit})
		}
		for _, fc := range prog.Funcs {
			bodies = append(bodies, codeBody{fc.Decl.Name, fc.RCode})
		}
		sections := listingSections(listing)
		if len(sections) != len(bodies) {
			t.Fatalf("%s: listing has %d code bodies, program has %d", np.name, len(sections), len(bodies))
		}
		for bi, body := range bodies {
			sec := sections[bi]
			for pc := range body.code {
				var want []string
				for _, target := range jumpTargets(&body.code[pc]) {
					if target < 0 || int(target) >= len(body.code) {
						t.Fatalf("%s: %s pc %d: target %d outside the body [0,%d)",
							np.name, body.name, pc, target, len(body.code))
					}
					label, ok := sec.labelAt[target]
					if !ok {
						t.Fatalf("%s: %s pc %d: target %d does not start a block", np.name, body.name, pc, target)
					}
					want = append(want, label)
				}
				if got := sec.refs[int32(pc)]; !slices.Equal(got, want) {
					t.Fatalf("%s: %s pc %d: listing names targets %q, want %q", np.name, body.name, pc, got, want)
				}
			}
		}
	}
}

// codeBody is one register-code body of a program, named for messages.
type codeBody struct {
	name string
	code []ir.RInstr
}

// listingSection is one code body of a Disasm listing: its block labels by
// pc, and the target labels each instruction line names.
type listingSection struct {
	labelAt map[int32]string
	refs    map[int32][]string
}

// listingSections splits a Disasm listing into its code bodies (init first,
// then functions), in listing order.
func listingSections(listing string) []*listingSection {
	var out []*listingSection
	var cur *listingSection
	pending := ""
	for _, line := range strings.Split(listing, "\n") {
		switch {
		case strings.HasPrefix(line, "init regs=") || strings.HasPrefix(line, "func "):
			cur = &listingSection{labelAt: map[int32]string{}, refs: map[int32][]string{}}
			out = append(out, cur)
		case cur == nil:
		case listingLabel.MatchString(line):
			pending = listingLabel.FindStringSubmatch(line)[1]
		case listingInstr.MatchString(line):
			pc, _ := strconv.Atoi(listingInstr.FindStringSubmatch(line)[1])
			if pending != "" {
				cur.labelAt[int32(pc)] = pending
				pending = ""
			}
			code, _, _ := strings.Cut(line, ";")
			for _, m := range listingRef.FindAllStringSubmatch(code, -1) {
				cur.refs[int32(pc)] = append(cur.refs[int32(pc)], m[1])
			}
		}
	}
	return out
}
