package apps

import (
	"fmt"

	"pathlog/internal/core"
)

// Scenario constructors bridging the raw sources to core.Scenario values the
// harness and the examples consume.

// CoreutilScenario returns the §5.2 crash scenario for one coreutil by name
// (mkdir, mknod, mkfifo, paste). maxArgLen scales the argument streams; the
// paper uses 100-byte arguments, tests usually pass something smaller.
func CoreutilScenario(name string, maxArgLen int) (*core.Scenario, error) {
	cu, ok := coreutil(name, maxArgLen)
	if !ok {
		return nil, fmt.Errorf("apps: unknown coreutil %q", name)
	}
	return &core.Scenario{
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
func UServerScenario(exp int, payloadCap int) (*core.Scenario, error) {
	if exp < 1 || exp > len(UServerExperiments) {
		return nil, fmt.Errorf("apps: uServer experiment %d out of range", exp)
	}
	spec, user := UServerScenarioSpec(UServerExperiments[exp-1], payloadCap, true)
	return &core.Scenario{
		Name:      fmt.Sprintf("userver-exp%d", exp),
		Prog:      UServerProgram(),
		Spec:      spec,
		UserBytes: user,
	}, nil
}

// UServerLoadScenario returns a non-crashing uServer workload with nReqs
// identical requests, used for overhead measurements (Figure 4) and branch
// statistics (Figure 3).
func UServerLoadScenario(nReqs int, req string) *core.Scenario {
	reqs := make([]string, nReqs)
	for i := range reqs {
		reqs[i] = req
	}
	spec, user := UServerScenarioSpec(reqs, len(req)+16, false)
	return &core.Scenario{
		Name:      fmt.Sprintf("userver-load%d", nReqs),
		Prog:      UServerProgram(),
		Spec:      spec,
		UserBytes: user,
	}
}

// DefaultHTTPRequest is the canonical request used by load workloads.
const DefaultHTTPRequest = "GET /index.html HTTP/1.1\r\nHost: localhost\r\n\r\n"

// UServerAnalysisScenario returns the pre-deployment exploration scenario:
// connection streams seeded with the developer test requests, so the first
// concolic runs already walk the parser's happy paths (the paper's
// test-suite-driven exploration).
func UServerAnalysisScenario() *core.Scenario {
	spec, user := UServerScenarioSpec(AnalysisRequests, 72, false)
	for i := range spec.Conns {
		if b, ok := user[fmt.Sprintf("conn%d", i)]; ok {
			spec.Conns[i].Stream.Seed = b
		}
	}
	return &core.Scenario{Name: "userver-analysis", Prog: UServerProgram(), Spec: spec}
}

// DiffExperimentScenario returns diff experiment exp (1-based, §5.4).
func DiffExperimentScenario(exp int) (*core.Scenario, error) {
	if exp < 1 || exp > len(DiffExperiments) {
		return nil, fmt.Errorf("apps: diff experiment %d out of range", exp)
	}
	pair := DiffExperiments[exp-1]
	spec, user := DiffScenario(pair[0], pair[1], 32)
	return &core.Scenario{
		Name:      fmt.Sprintf("diff-exp%d", exp),
		Prog:      DiffProgram(),
		Spec:      spec,
		UserBytes: user,
	}, nil
}

// MicroLoopScenario returns the counting-loop microbenchmark scenario.
func MicroLoopScenario(iterations int64) *core.Scenario {
	spec, user := MicroLoopSpec(iterations)
	return &core.Scenario{
		Name:      "micro-loop",
		Prog:      MicroLoopProgram(),
		Spec:      spec,
		UserBytes: user,
	}
}

// MicroFibScenario returns the Listing-1 scenario with the given option
// byte ('a' or 'b' select a Fibonacci computation).
func MicroFibScenario(option byte) *core.Scenario {
	spec, user := MicroFibSpec(option)
	return &core.Scenario{
		Name:      "micro-fib",
		Prog:      MicroFibProgram(),
		Spec:      spec,
		UserBytes: user,
	}
}

// AnalysisSpec widens a scenario's input space for pre-deployment analysis:
// the developer explores with generic inputs (the paper's "up to 10
// arguments, each 100 bytes"), not with the user's future input. The
// returned scenario shares the program but uses neutral streams only.
func AnalysisSpec(s *core.Scenario) *core.Scenario {
	return &core.Scenario{
		Name: s.Name + "-analysis",
		Prog: s.Prog,
		Spec: s.Spec,
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
func ScenarioByName(name string) (*core.Scenario, error) {
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
// exploration; everything else explores its own neutral input space.
func AnalysisScenarioFor(name string, s *core.Scenario) *core.Scenario {
	if len(name) >= 7 && name[:7] == "userver" {
		return UServerAnalysisScenario()
	}
	return AnalysisSpec(s)
}
