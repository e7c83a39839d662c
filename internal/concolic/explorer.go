// Package concolic implements the paper's dynamic analysis (§2.1): a
// time-bounded concolic execution engine that explores program paths with
// concrete inputs, labels every visited branch location as symbolic or
// concrete, and leaves the rest unvisited.
//
// The engine follows the concolic discipline described in the paper: each
// run executes the whole program with concrete inputs while collecting the
// path condition (one constraint per symbolic branch execution); after a run,
// constraints are negated one by one to produce child inputs (generational
// search), which are queued for later runs. Labels obey §2.1 exactly: a
// branch first executed with a symbolic condition is symbolic forever; a
// branch first executed with a concrete condition is concrete until some
// later execution observes a symbolic condition, which relabels it symbolic.
package concolic

import (
	"context"
	"slices"
	"strconv"
	"time"

	"pathlog/internal/ir"
	"pathlog/internal/lang"
	"pathlog/internal/oskernel"
	"pathlog/internal/solver"
	"pathlog/internal/sym"
	"pathlog/internal/vm"
	"pathlog/internal/world"
)

// Label is the dynamic-analysis classification of a branch location.
type Label int

// Labels. The zero value is Unvisited.
const (
	Unvisited Label = iota
	Concrete
	Symbolic
)

// String implements fmt.Stringer.
func (l Label) String() string {
	return [...]string{"unvisited", "concrete", "symbolic"}[l]
}

// Options bound the exploration effort. The time budget is the paper's
// coverage knob: more symbolic-execution time buys higher branch coverage
// (the LC/HC configurations of §5.3).
type Options struct {
	// MaxRuns bounds the number of concolic runs; 0 means DefaultMaxRuns.
	MaxRuns int
	// TimeBudget bounds wall-clock exploration time; 0 means no limit.
	TimeBudget time.Duration
	// Engine builds the execution machine for each run; nil uses the
	// bytecode VM (ir.Engine), as every layer does.
	Engine vm.Factory
}

// DefaultMaxRuns is the run budget of an exploration that sets none.
const DefaultMaxRuns = 400

// Exploration caps. maxQueue bounds the pending-input queue.
// maxChildrenPerRun bounds how many negated constraints of one run are
// turned into child inputs: deep paths (diff's LCS loops) would otherwise
// spawn thousands of solver calls per run.
const (
	maxQueue          = 4096
	maxChildrenPerRun = 48
)

// Report is the outcome of one exploration.
type Report struct {
	Labels      map[lang.BranchID]Label
	Runs        int
	Elapsed     time.Duration
	SolverStats solver.Stats
	// BranchExecs counts total branch executions across runs; SymbolicExecs
	// counts those with symbolic conditions (Figure 1/3 data).
	BranchExecs   int64
	SymbolicExecs int64
	// ExecCount and SymExecCount give per-location execution histograms.
	ExecCount    map[lang.BranchID]int64
	SymExecCount map[lang.BranchID]int64
}

// Coverage returns the fraction of the program's branch locations visited.
func (r *Report) Coverage(total int) float64 {
	if total == 0 {
		return 0
	}
	visited := 0
	for _, l := range r.Labels {
		if l != Unvisited {
			visited++
		}
	}
	return float64(visited) / float64(total)
}

// CountLabel returns how many branch locations carry the given label.
func (r *Report) CountLabel(l Label) int {
	n := 0
	for _, got := range r.Labels {
		if got == l {
			n++
		}
	}
	return n
}

// Explorer drives concolic exploration of one program over one input spec.
type Explorer struct {
	prog *lang.Program
	spec *world.Spec
	reg  *world.Registry
	slv  *solver.Solver
	opts Options

	report Report
	queue  []sym.MapAssignment
	seen   map[string]bool // dedup of queued assignments
	varBuf []int           // scratch for per-child constraint variable IDs

	// Per-run slicing scratch (sliceRelevant): the variable IDs of path
	// constraint j are condVars[condEnd[j]:condEnd[j+1]], and mark[id] ==
	// epoch marks variable id relevant to the slice being built.
	condVars []int
	condEnd  []int
	mark     []uint32
	epoch    uint32
	sliced   []sym.Constraint
}

// New creates an explorer. The registry may be shared with a later replay
// session so that branch labels and constraints agree on variable identity.
func New(prog *lang.Program, spec *world.Spec, reg *world.Registry, opts Options) *Explorer {
	if opts.MaxRuns <= 0 {
		opts.MaxRuns = DefaultMaxRuns
	}
	if opts.Engine == nil {
		opts.Engine = ir.Engine
	}
	return &Explorer{
		prog: prog,
		spec: spec,
		reg:  reg,
		slv:  solver.New(solver.Options{}),
		opts: opts,
		seen: make(map[string]bool),
	}
}

// pathCond is one collected constraint with its branch site.
type pathCond struct {
	site *lang.BranchSite
	c    sym.Constraint
}

// tracer is the branch sink used during exploration runs: it labels branch
// locations and collects the path condition.
type tracer struct {
	ex    *Explorer
	conds []pathCond
	// maxConds caps the path condition length so enormous runs (the diff
	// LCS loops) do not stall child generation.
	maxConds int
}

// OnBranch implements vm.BranchSink.
func (t *tracer) OnBranch(site *lang.BranchSite, cond vm.Value, taken bool) error {
	t.ex.report.BranchExecs++
	t.ex.report.ExecCount[site.ID]++
	if cond.IsSymbolic() {
		t.ex.report.SymbolicExecs++
		t.ex.report.SymExecCount[site.ID]++
		t.ex.report.Labels[site.ID] = Symbolic // symbolic is sticky
		if len(t.conds) < t.maxConds {
			t.conds = append(t.conds, pathCond{
				site: site,
				c:    sym.Constraint{E: cond.Sym, Truth: taken},
			})
		}
		return nil
	}
	if t.ex.report.Labels[site.ID] == Unvisited {
		t.ex.report.Labels[site.ID] = Concrete
	}
	return nil
}

// Explore runs the analysis until its budget is exhausted, the context is
// cancelled, or its deadline passes, and returns the labeling report. The
// context subsumes the TimeBudget option: whichever bound fires first stops
// exploration after the current run.
func (e *Explorer) Explore(ctx context.Context) *Report {
	e.report = Report{
		Labels:       make(map[lang.BranchID]Label, len(e.prog.Branches)),
		ExecCount:    make(map[lang.BranchID]int64),
		SymExecCount: make(map[lang.BranchID]int64),
	}
	for _, b := range e.prog.Branches {
		e.report.Labels[b.ID] = Unvisited
	}

	start := time.Now()
	if e.opts.TimeBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, start.Add(e.opts.TimeBudget))
		defer cancel()
	}

	e.queue = []sym.MapAssignment{{}} // initial run: all-seed input
	for len(e.queue) > 0 && e.report.Runs < e.opts.MaxRuns {
		if ctx.Err() != nil {
			break
		}
		asn := e.queue[0]
		e.queue = e.queue[1:]
		conds := e.runOnce(asn)
		if e.report.Runs >= e.opts.MaxRuns {
			break // the budget is spent; child generation would be wasted
		}
		e.generateChildren(asn, conds)
	}

	e.report.Elapsed = time.Since(start)
	e.report.SolverStats = e.slv.Stats()
	return &e.report
}

// runOnce executes the program with one concrete assignment and returns the
// collected path condition.
func (e *Explorer) runOnce(asn sym.MapAssignment) []pathCond {
	e.report.Runs++
	w := world.NewWorld(e.spec, e.reg, asn)
	cfg := w.KernelConfig()
	cfg.Mode = oskernel.ModeRecord
	kern := oskernel.New(cfg)
	tr := &tracer{ex: e, maxConds: 4096}
	machine := e.opts.Engine(e.prog, vm.Options{
		Kernel: kern,
		Sink:   tr,
		World:  w,
	})
	// Crashes and budget blowups during analysis are expected: exploration
	// inputs routinely trip the planted bugs. Only real VM errors matter.
	if _, err := machine.Run(); err != nil {
		// A VM-internal error means a bug in this repository, not in the
		// analyzed program. Surface it loudly.
		panic(err)
	}
	return tr.conds
}

// generateChildren negates path constraints (generational search) and
// queues solved inputs for later runs. Two standard concolic optimizations
// keep this tractable on deep paths:
//
//   - the number of children per run is capped, with negation sites spread
//     evenly over the path so deep branches still get explored;
//   - unrelated constraint elimination: each child problem contains only the
//     prefix constraints transitively sharing variables with the negated
//     one, found in one backward pass over variable IDs collected once per
//     run (sliceRelevant). Dropping independent constraints cannot make the
//     negation unsolvable; the child input may diverge earlier on the path,
//     which exploration tolerates (it is not replay).
func (e *Explorer) generateChildren(parent sym.MapAssignment, conds []pathCond) {
	n := len(conds)
	if n == 0 {
		return
	}
	e.collectVars(conds)
	stride := 1
	if n > maxChildrenPerRun {
		stride = n / maxChildrenPerRun
	}
	for i := 0; i < n; i += stride {
		if len(e.queue) >= maxQueue {
			return
		}
		sliced := e.sliceRelevant(conds, i)
		vars := sym.ConstraintVarIDs(sliced, e.varBuf)
		e.varBuf = vars
		problem := solver.Problem{
			Constraints: sliced,
			Domains:     e.reg.Domains(vars),
			Seed:        parent.Restrict(vars),
		}
		child, ok := e.slv.Solve(problem)
		if !ok {
			continue
		}
		merged := parent.Overlay(child)
		key := assignmentKey(merged)
		if e.seen[key] {
			continue
		}
		e.seen[key] = true
		e.queue = append(e.queue, merged)
	}
}

// collectVars lists the variable IDs of each path constraint in condVars
// and condEnd, and grows the mark table to cover every ID.
func (e *Explorer) collectVars(conds []pathCond) {
	e.condVars, e.condEnd = e.condVars[:0], append(e.condEnd[:0], 0)
	for _, pc := range conds {
		e.condVars = sym.AppendVarIDs(pc.c.E, e.condVars)
		e.condEnd = append(e.condEnd, len(e.condVars))
	}
	if len(e.condVars) > 0 {
		if need := slices.Max(e.condVars) + 1; need > len(e.mark) {
			e.mark = append(e.mark, make([]uint32, need-len(e.mark))...)
		}
	}
}

// sliceRelevant returns constraint i negated, preceded in prefix order by
// the prefix constraints sharing a variable with it or with a constraint
// kept after them (one backward pass from i-1 to 0). The slice is scratch,
// valid until the next call.
func (e *Explorer) sliceRelevant(conds []pathCond, i int) []sym.Constraint {
	e.epoch++
	if e.epoch == 0 { // wrapped: stale marks could alias the new epoch
		clear(e.mark)
		e.epoch = 1
	}
	for _, v := range e.condVars[e.condEnd[i]:e.condEnd[i+1]] {
		e.mark[v] = e.epoch
	}
	e.sliced = e.sliced[:0]
	for j := i - 1; j >= 0; j-- {
		vars := e.condVars[e.condEnd[j]:e.condEnd[j+1]]
		if !slices.ContainsFunc(vars, func(v int) bool { return e.mark[v] == e.epoch }) {
			continue
		}
		e.sliced = append(e.sliced, conds[j].c)
		for _, v := range vars {
			e.mark[v] = e.epoch
		}
	}
	slices.Reverse(e.sliced)
	e.sliced = append(e.sliced, conds[i].c.Negated())
	return e.sliced
}

// assignmentKey renders a canonical dedup key.
func assignmentKey(asn sym.MapAssignment) string {
	// Assignments are small (tens of bytes); a sorted textual key is fine.
	ids := make([]int, 0, len(asn))
	for id := range asn {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	buf := make([]byte, 0, len(ids)*6)
	for _, id := range ids {
		buf = strconv.AppendInt(buf, int64(id), 10)
		buf = append(buf, '=')
		buf = strconv.AppendInt(buf, asn[id], 10)
		buf = append(buf, ';')
	}
	return string(buf)
}
