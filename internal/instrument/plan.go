package instrument

import (
	"fmt"
	"sort"
	"sync"

	"pathlog/internal/concolic"
	"pathlog/internal/lang"
	"pathlog/internal/static"
	"pathlog/internal/trace"
	"pathlog/internal/vm"
)

// Method selects an instrumentation strategy.
type Method int

// Methods. MethodNone is the uninstrumented baseline configuration.
const (
	MethodNone Method = iota
	MethodDynamic
	MethodStatic
	MethodDynamicStatic
	MethodAll
)

var methodNames = [...]string{"none", "dynamic", "static", "dynamic+static", "all branches"}

// String implements fmt.Stringer.
func (m Method) String() string {
	if m >= 0 && int(m) < len(methodNames) {
		return methodNames[m]
	}
	return "method?"
}

// Methods lists the instrumented methods in the paper's presentation order.
var Methods = []Method{MethodDynamic, MethodDynamicStatic, MethodStatic, MethodAll}

// ParseMethod parses the CLI spelling of a method ("none", "dynamic",
// "static", "dynamic+static", "all").
func ParseMethod(s string) (Method, error) {
	switch s {
	case "none":
		return MethodNone, nil
	case "dynamic":
		return MethodDynamic, nil
	case "static":
		return MethodStatic, nil
	case "dynamic+static":
		return MethodDynamicStatic, nil
	case "all":
		return MethodAll, nil
	}
	return 0, fmt.Errorf("instrument: unknown method %q (want none, dynamic, static, dynamic+static or all)", s)
}

// Plan is the instrumentation decision for one program build. Plans are
// durable artifacts: Save/LoadPlan round-trip them through JSON, and
// Fingerprint gives them a shippable identity covering the program, the
// branch set and the syscall flag.
//
// A Plan is not modified after its first use. Its constructor (and the
// strategy, refinement or decoder that called it) sets every field, then
// hands the plan out; from the first Fingerprint, Table, Instruments or
// NewLogger call on, the plan is compiled once into what its instrumented
// build needs — the fingerprint and a dense branch table — and every
// later call reads that compiled form, so a later edit to Instrumented,
// LogSyscalls or ProgHash would not be seen (Strategy, Cost and lineage
// are outside the compiled form). Derive a changed plan by
// building a new one. A Plan must not be copied after first use (go vet's
// copylocks check reports struct copies).
type Plan struct {
	// Strategy names the strategy that produced the plan (e.g.
	// "union(dynamic,static-residue)"); empty on hand-built plans.
	Strategy string
	// Instrumented holds the branch locations whose directions are logged.
	Instrumented map[lang.BranchID]bool
	// LogSyscalls enables recording of select()/read() results (§2.3).
	LogSyscalls bool
	// ProgHash identifies the program the plan was built for (see
	// lang.Program.Hash); empty on hand-built plans, which skips program checks.
	ProgHash string
	// Cost is the plan's modeled position in the overhead/debug-time plane.
	Cost CostEstimate
	// Generation counts refinement steps: 0 for a plan built from analysis
	// alone, n+1 for a plan Refine derived from a generation-n plan.
	// Lineage is provenance, not identity — it is deliberately outside the
	// fingerprint, because two plans with the same branch set are
	// interchangeable at record and replay time however they were reached.
	Generation int
	// Parent is the fingerprint of the plan this one was refined from;
	// empty for generation 0.
	Parent string

	compileOnce sync.Once
	compiled    compiledPlan
}

// compiledPlan is what a plan's instrumented build needs, derived once
// from the plan's fields on first use.
type compiledPlan struct {
	fingerprint string
	// table is the instrumented set as a dense table indexed by BranchID,
	// sized to the largest instrumented ID plus one.
	table []bool
}

// compile returns the plan's compiled form, building it on first use.
// It is safe for concurrent use.
func (p *Plan) compile() *compiledPlan {
	p.compileOnce.Do(func() {
		p.compiled = compiledPlan{fingerprint: p.computeFingerprint(), table: p.computeTable()}
	})
	return &p.compiled
}

// computeTable builds the dense table Table returns.
func (p *Plan) computeTable() []bool {
	size := 0
	for id, v := range p.Instrumented {
		if v && id >= 0 && int(id) >= size {
			size = int(id) + 1
		}
	}
	tab := make([]bool, size)
	for id, v := range p.Instrumented {
		if v && id >= 0 {
			tab[id] = true
		}
	}
	return tab
}

// Table returns the instrumented set as a dense table indexed by BranchID,
// sized to the largest instrumented ID plus one: branch id is logged iff
// id < len(tab) && tab[id]. It is the form the per-branch-execution sinks
// (Logger, the replay engine) test, in place of a map lookup. The table is
// built once per plan and shared; callers must not modify it.
func (p *Plan) Table() []bool { return p.compile().table }

// Instruments reports whether applying the plan changes the build at all:
// an empty branch set with no syscall logging is the uninstrumented
// baseline and produces no recording.
func (p *Plan) Instruments() bool {
	return p.LogSyscalls || len(p.Table()) > 0
}

// NumInstrumented returns the number of instrumented branch locations.
func (p *Plan) NumInstrumented() int {
	n := 0
	for _, v := range p.Instrumented {
		if v {
			n++
		}
	}
	return n
}

// InstrumentedIn counts instrumented branch locations within a region.
func (p *Plan) InstrumentedIn(prog *lang.Program, r lang.Region) int {
	n := 0
	for _, b := range prog.Branches {
		if b.Region == r && p.Instrumented[b.ID] {
			n++
		}
	}
	return n
}

// IDs returns the sorted instrumented branch IDs.
func (p *Plan) IDs() []lang.BranchID {
	out := make([]lang.BranchID, 0, len(p.Instrumented))
	for id, v := range p.Instrumented {
		if v {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Inputs carries the analysis results a plan is derived from. Dynamic and
// Static may each be nil when the method does not need them.
type Inputs struct {
	Dynamic *concolic.Report
	Static  *static.Report
}

// Logger is the vm.BranchSink an instrumented build runs with at the user
// site: one bit per executed instrumented branch through the 4KB buffer.
type Logger struct {
	tab []bool // the plan's Table
	w   *trace.Writer
	// InstrumentedExecs counts executions of instrumented branches.
	InstrumentedExecs int64
}

// NewLogger returns a logger for the given plan.
func NewLogger(plan *Plan) *Logger {
	return &Logger{tab: plan.Table(), w: trace.NewWriter()}
}

// OnBranch implements vm.BranchSink.
func (l *Logger) OnBranch(site *lang.BranchSite, cond vm.Value, taken bool) error {
	if id := site.ID; int(id) < len(l.tab) && l.tab[id] {
		l.InstrumentedExecs++
		l.w.Append(taken)
	}
	return nil
}

// Finish returns the completed branch trace.
func (l *Logger) Finish() *trace.Trace { return l.w.Finish() }

// Flushes reports buffer flushes so far.
func (l *Logger) Flushes() int { return l.w.Flushes() }
