package apps

import (
	"fmt"
	"strings"

	"pathlog/internal/lang"
	"pathlog/internal/world"
)

// Scenario binds a program to an input space and one user execution. It is
// plain data: pathlog.SessionOf turns it into a Session, the one route
// through analysis, planning, recording and replay.
type Scenario struct {
	Name string
	Prog *lang.Program
	// Spec is the neutral input space: stream shapes with placeholder
	// seeds. Analysis and replay see only this — never the user's bytes.
	Spec *world.Spec
	// UserBytes holds the user-site input per stream name (the bytes that
	// actually trigger the bug at record time).
	UserBytes map[string][]byte
}

// Scenario constructors bridging the raw sources to the Scenario values the
// harness, the tools and the examples consume.

// CoreutilScenario returns the §5.2 crash scenario for one coreutil by name
// (mkdir, mknod, mkfifo, paste). maxArgLen scales the argument streams; the
// paper uses 100-byte arguments, tests usually pass something smaller.
func CoreutilScenario(name string, maxArgLen int) (*Scenario, error) {
	cu, ok := coreutil(name, maxArgLen)
	if !ok {
		return nil, fmt.Errorf("apps: unknown coreutil %q", name)
	}
	return &Scenario{
		Name:      cu.Name,
		Prog:      cu.Prog,
		Spec:      cu.Spec,
		UserBytes: cu.UserArg,
	}, nil
}

// CoreutilNames lists the four §5.2 programs.
func CoreutilNames() []string { return []string{"mkdir", "mknod", "mkfifo", "paste"} }

// UServerScenario returns uServer experiment exp (1-based, §5.3) with the
// scripted HTTP requests as symbolic connection streams and the crash signal
// armed. payloadCap bounds each request stream.
func UServerScenario(exp int, payloadCap int) (*Scenario, error) {
	if exp < 1 || exp > len(UServerExperiments) {
		return nil, fmt.Errorf("apps: uServer experiment %d out of range", exp)
	}
	spec, user := UServerScenarioSpec(UServerExperiments[exp-1], payloadCap, true)
	return &Scenario{
		Name:      fmt.Sprintf("userver-exp%d", exp),
		Prog:      UServerProgram(),
		Spec:      spec,
		UserBytes: user,
	}, nil
}

// UServerLoadScenario returns a non-crashing uServer workload with nReqs
// identical requests, used for overhead measurements (Figure 4) and branch
// statistics (Figure 3).
func UServerLoadScenario(nReqs int, req string) *Scenario {
	reqs := make([]string, nReqs)
	for i := range reqs {
		reqs[i] = req
	}
	spec, user := UServerScenarioSpec(reqs, len(req)+16, false)
	return &Scenario{
		Name:      fmt.Sprintf("userver-load%d", nReqs),
		Prog:      UServerProgram(),
		Spec:      spec,
		UserBytes: user,
	}
}

// DefaultHTTPRequest is the canonical request used by load workloads.
const DefaultHTTPRequest = "GET /index.html HTTP/1.1\r\nHost: localhost\r\n\r\n"

// UServerAnalysisSpec returns the pre-deployment exploration spec:
// connection streams seeded with the developer test requests, so the first
// concolic runs already walk the parser's happy paths (the paper's
// test-suite-driven exploration). Callers that need only the spec use this
// rather than UServerAnalysisScenario, which also compiles the program.
func UServerAnalysisSpec() *world.Spec {
	spec, user := UServerScenarioSpec(AnalysisRequests, 72, false)
	for i := range spec.Conns {
		if b, ok := user[fmt.Sprintf("conn%d", i)]; ok {
			spec.Conns[i].Stream.Seed = b
		}
	}
	return spec
}

// UServerAnalysisScenario returns the pre-deployment exploration scenario:
// the uServer program over UServerAnalysisSpec.
func UServerAnalysisScenario() *Scenario {
	return &Scenario{Name: "userver-analysis", Prog: UServerProgram(), Spec: UServerAnalysisSpec()}
}

// DiffExperimentScenario returns diff experiment exp (1-based, §5.4).
func DiffExperimentScenario(exp int) (*Scenario, error) {
	if exp < 1 || exp > len(DiffExperiments) {
		return nil, fmt.Errorf("apps: diff experiment %d out of range", exp)
	}
	pair := DiffExperiments[exp-1]
	spec, user := DiffScenario(pair[0], pair[1], 32)
	return &Scenario{
		Name:      fmt.Sprintf("diff-exp%d", exp),
		Prog:      DiffProgram(),
		Spec:      spec,
		UserBytes: user,
	}, nil
}

// MicroLoopScenario returns the counting-loop microbenchmark scenario.
func MicroLoopScenario(iterations int64) *Scenario {
	spec, user := MicroLoopSpec(iterations)
	return &Scenario{
		Name:      "micro-loop",
		Prog:      MicroLoopProgram(),
		Spec:      spec,
		UserBytes: user,
	}
}

// MicroFibScenario returns the Listing-1 scenario with the given option
// byte ('a' or 'b' select a Fibonacci computation).
func MicroFibScenario(option byte) *Scenario {
	spec, user := MicroFibSpec(option)
	return &Scenario{
		Name:      "micro-fib",
		Prog:      MicroFibProgram(),
		Spec:      spec,
		UserBytes: user,
	}
}

// ScenarioNames lists every named scenario the tools can address.
func ScenarioNames() []string {
	names := append([]string{}, CoreutilNames()...)
	for i := 1; i <= len(UServerExperiments); i++ {
		names = append(names, fmt.Sprintf("userver-exp%d", i))
	}
	for i := 1; i <= len(DiffExperiments); i++ {
		names = append(names, fmt.Sprintf("diff-exp%d", i))
	}
	return append(names, "micro-fib")
}

// ScenarioByName resolves a named scenario for the command-line tools.
func ScenarioByName(name string) (*Scenario, error) {
	for _, cu := range CoreutilNames() {
		if name == cu {
			return CoreutilScenario(name, 16)
		}
	}
	for i := 1; i <= len(UServerExperiments); i++ {
		if name == fmt.Sprintf("userver-exp%d", i) {
			return UServerScenario(i, 72)
		}
	}
	for i := 1; i <= len(DiffExperiments); i++ {
		if name == fmt.Sprintf("diff-exp%d", i) {
			return DiffExperimentScenario(i)
		}
	}
	if name == "micro-fib" {
		s := MicroFibScenario('c')
		return s, nil
	}
	return nil, fmt.Errorf("apps: unknown scenario %q (known: %v)", name, ScenarioNames())
}

// AnalysisScenarioFor returns the pre-deployment analysis scenario matched
// to a named scenario: uServer experiments share the test-suite-seeded
// exploration of their own program; everything else explores its own
// neutral input space.
func AnalysisScenarioFor(name string, s *Scenario) *Scenario {
	if strings.HasPrefix(name, "userver") {
		return &Scenario{Name: "userver-analysis", Prog: s.Prog, Spec: UServerAnalysisSpec()}
	}
	return s
}
