package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"

	"pathlog"
	"pathlog/internal/apps"
)

// An app is one program a workload deploys: it is compiled, analysed and
// planned during set-up, and every input the workload draws runs on it.
type app struct {
	name string
	// program builds the program from its MiniC source (the compile layer).
	program func() *pathlog.Program
	// analysisSpec is the input space the pre-deployment analyses explore.
	analysisSpec *pathlog.Spec
	// opts configure the pre-deployment analyses: the dynamic budget and
	// the static options.
	opts []pathlog.Option
}

// An input is one user-site execution that ends in the workload's crash:
// the bytes the user ran on, and the neutral input space (stream shapes)
// the developer site replays over.
type input struct {
	app   int
	shape string
	spec  *pathlog.Spec
	user  map[string][]byte
}

// A workload is a set of apps plus a generator of crashing inputs. inputs
// keeps each shape's structure fixed and draws only the bytes the programs
// treat alike (letters of names, values and file lines), so that every seed
// costs about the same and the spread across seeds stays small.
type workload struct {
	name string
	apps []app
	// strategy chooses the logged branches; nil deploys the paper's
	// dynamic+static plan.
	strategy pathlog.Strategy
	inputs   func(rng *rand.Rand) []input
}

// The workloads, and why each is here (BENCHMARK.json says the same):
//
//   - coreutils: the four §5.2 programs; microsecond runs and searches of a
//     few runs, so fixed per-report costs dominate both sides;
//   - userver: the §5.3 server under the paper's dynamic+static plan;
//     request parsing, searches of 30 to 200 runs, solver-heavy;
//   - userver-all: the same requests with every branch logged; about three
//     times the bits, so the logger layer carries the recording cost, while
//     the search is the same;
//   - diff: the §5.4 program on two text files; an LCS loop over file lines,
//     the costliest pre-deployment analysis, and short searches.
var workloads = []workload{
	{
		name:   "coreutils",
		apps:   coreutilApps(),
		inputs: coreutilInputs,
	},
	{
		name:   "userver",
		apps:   userverApps(),
		inputs: userverInputs,
	},
	{
		name:     "userver-all",
		apps:     userverApps(),
		strategy: pathlog.All(),
		inputs:   userverInputs,
	},
	{
		name:   "diff",
		apps:   diffApps(),
		inputs: diffInputs,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// coreutils are the four programs with their input spaces, whose argument
// streams hold up to 12 bytes each. Set-up compiles each program again from
// its source; the specs serve both the analyses and the inputs.
var coreutils = apps.Coreutils(12)

func coreutilApps() []app {
	var out []app
	for _, cu := range coreutils {
		out = append(out, app{
			name:         cu.Name,
			program:      programOf(cu.Name),
			analysisSpec: cu.Spec,
			opts:         []pathlog.Option{pathlog.WithDynamicBudget(300, 0)},
		})
	}
	return out
}

var coreutilSources = map[string]string{
	"mkdir":  apps.MkdirSource,
	"mknod":  apps.MknodSource,
	"mkfifo": apps.MkfifoSource,
	"paste":  apps.PasteSource,
}

// programOf compiles one coreutil against ulib on every call, so that
// set-up pays the compile layer for that program alone each time it runs.
func programOf(name string) func() *pathlog.Program {
	return func() *pathlog.Program {
		prog, err := pathlog.Compile(
			pathlog.Unit{Name: name + ".mc", Source: coreutilSources[name]},
			pathlog.Unit{Name: "ulib.mc", Lib: true, Source: apps.ULibSource},
		)
		if err != nil {
			panic("perfbench: embedded coreutil source does not compile: " + err.Error())
		}
		return prog
	}
}

// coreutilInputs draws one bug-triggering invocation per coreutil. The
// values vary, the bug each one triggers does not.
func coreutilInputs(rng *rand.Rand) []input {
	args := []map[string][]byte{
		// mkdir -m MODE DIR: any mode longer than 3 digits overflows modebuf.
		{"arg0": []byte("-m"), "arg1": []byte("0" + draw(rng, 4, "01234567")), "arg2": []byte(word(rng, 1))},
		// mknod NAME b|c with no major number.
		{"arg0": []byte(word(rng, 3)), "arg1": []byte(pick(rng, "b", "c"))},
		// mkfifo -m MODE NAME with a digit that is not octal.
		{"arg0": []byte("-m"), "arg1": []byte(pick(rng, "8", "9")), "arg2": []byte(word(rng, 1))},
		// paste -d\ FILE over three one-letter lines.
		{"arg0": []byte("-d\\"), "arg1": []byte("data.txt"),
			"file:data.txt": []byte(word(rng, 1) + "\n" + word(rng, 1) + "\n" + word(rng, 1) + "\n")},
	}
	out := make([]input, len(coreutils))
	for i, cu := range coreutils {
		out[i] = input{app: i, shape: cu.Name, spec: cu.Spec, user: args[i]}
	}
	return out
}

func userverApps() []app {
	return []app{{
		name:         "userver",
		program:      apps.UServerProgram,
		analysisSpec: apps.UServerAnalysisScenario().Spec,
		opts: []pathlog.Option{
			pathlog.WithDynamicBudget(60, 0),
			pathlog.WithStaticOptions(pathlog.StaticOptions{LibAsSymbolic: true}),
		},
	}}
}

// userverTemplates are the five §5.3 experiments' requests with the words
// the server does not interpret replaced by placeholders: {n} stands for n
// random lowercase letters.
var userverTemplates = [][]string{
	{"GET / HTTP/1.1\r\n\r\n"},
	{"GET /{5}.html?{4}={3}&{4}={2} HTTP/1.1\r\nHost: {1}\r\n\r\n"},
	{"GET /{1}%20{1}?{1}=1 HTTP/1.1\r\nCookie: {3}={3}; {5}={4}\r\n\r\n"},
	{"POST /{6} HTTP/1.1\r\nContent-Length: 5\r\n\r\n{5}"},
	{
		"HEAD /{1} HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
		"GET /{1}?{1}={1} HTTP/1.1\r\nUser-Agent: {7}\r\n\r\n",
	},
}

// userverPayloadCap bounds each request stream, as the paper's experiments do.
const userverPayloadCap = 72

func userverInputs(rng *rand.Rand) []input {
	out := make([]input, len(userverTemplates))
	for i, tmpl := range userverTemplates {
		reqs := make([]string, len(tmpl))
		for j, t := range tmpl {
			reqs[j] = fill(rng, t)
		}
		spec, user := apps.UServerScenarioSpec(reqs, userverPayloadCap, true)
		out[i] = input{shape: fmt.Sprintf("exp%d", i+1), spec: spec, user: user}
	}
	return out
}

// diffShapes are the §5.4 experiments' files as line lengths: each file
// line is that many random letters. The second file shares the first's
// lines where the experiment's files agree.
var diffShapes = []struct {
	a, b []int
	// same[i] is the line of a that line i of b repeats, or -1 for a new line.
	same []int
}{
	{a: []int{5, 4, 5}, b: []int{5, 5, 5}, same: []int{0, -1, 2}},
	{a: []int{3, 3, 5, 4}, b: []int{3, 5, 4, 4, 3}, same: []int{0, 2, -1, 3, -1}},
}

func diffApps() []app {
	s, err := apps.DiffExperimentScenario(1)
	if err != nil {
		panic(err)
	}
	return []app{{
		name:         "diff",
		program:      apps.DiffProgram,
		analysisSpec: s.Spec,
		opts:         []pathlog.Option{pathlog.WithDynamicBudget(40, 0)},
	}}
}

func diffInputs(rng *rand.Rand) []input {
	out := make([]input, len(diffShapes))
	for i, sh := range diffShapes {
		a := make([]string, len(sh.a))
		for j, n := range sh.a {
			a[j] = word(rng, n)
		}
		b := make([]string, len(sh.b))
		for j, n := range sh.b {
			if sh.same[j] >= 0 {
				b[j] = a[sh.same[j]]
			} else {
				b[j] = word(rng, n)
			}
		}
		fa, fb := strings.Join(a, "\n")+"\n", strings.Join(b, "\n")+"\n"
		spec, user := apps.DiffScenario(fa, fb, 32)
		out[i] = input{shape: fmt.Sprintf("exp%d", i+1), spec: spec, user: user}
	}
	return out
}

func word(rng *rand.Rand, n int) string {
	return draw(rng, n, "abcdefghijklmnopqrstuvwxyz")
}

// draw returns n bytes drawn uniformly from alphabet.
func draw(rng *rand.Rand, n int, alphabet string) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.IntN(len(alphabet))]
	}
	return string(b)
}

func pick(rng *rand.Rand, choices ...string) string { return choices[rng.IntN(len(choices))] }

// fill replaces each {n} placeholder of a template with n random letters.
func fill(rng *rand.Rand, tmpl string) string {
	var b strings.Builder
	for {
		before, rest, found := strings.Cut(tmpl, "{")
		b.WriteString(before)
		if !found {
			return b.String()
		}
		num, after, _ := strings.Cut(rest, "}")
		n, err := strconv.Atoi(num)
		if err != nil {
			panic("perfbench: bad placeholder in a request template: {" + num + "}")
		}
		b.WriteString(word(rng, n))
		tmpl = after
	}
}
