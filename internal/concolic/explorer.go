// Package concolic implements the paper's dynamic analysis (§2.1): a
// time-bounded concolic execution engine that explores program paths with
// concrete inputs, labels every visited branch location as symbolic or
// concrete, and leaves the rest unvisited.
//
// The engine follows the concolic discipline described in the paper: each
// run executes the whole program with concrete inputs while collecting the
// path condition (one constraint per symbolic branch execution); after a run,
// constraints are negated one by one to produce child inputs (generational
// search), which are queued for later runs. Runs and child solves go to a
// pool of GOMAXPROCS worker goroutines, runs first: the head of the queue
// executes while earlier runs and their solves are under way. The calling
// goroutine commits finished runs in run order, numbering each run's new
// variables as it commits (world.World.Commit), and joins children to the
// queue in run and child order, so the exploration is the same at every
// GOMAXPROCS. Labels obey §2.1 exactly: a
// branch first executed with a symbolic condition is symbolic forever; a
// branch first executed with a concrete condition is concrete until some
// later execution observes a symbolic condition, which relabels it symbolic.
package concolic

import (
	"context"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
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
	// TimeBudget bounds wall-clock exploration time; 0 means no limit. No
	// run starts after the deadline, but the child solves of runs already
	// made finish after it.
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
// spawn thousands of solver calls per run. maxPathConds caps one run's
// path condition, so enormous runs do not stall child generation.
// maxInFlight bounds how many runs may be handed out and not committed, and
// how many runs' children may be unmerged when the next run is handed out.
const (
	maxQueue          = 4096
	maxChildrenPerRun = 48
	maxPathConds      = 4096
	maxInFlight       = 4
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
//
// Runs execute at once on the workers, yet their variables get the IDs a
// one-at-a-time exploration gives them: a run's new variables are numbered
// when it commits, and runs commit in run order (see world.Registry).
type Explorer struct {
	prog *lang.Program
	spec *world.Spec
	reg  *world.Registry
	opts Options

	report Report
	counts tracer // the committed runs' counts
	queue  []sym.MapAssignment
	seen   map[string]bool // dedup of queued assignments
	stats  solver.Stats    // of the child solves the exploration made

	// The pipeline, touched by the calling goroutine only: started counts
	// the runs handed out, running lists those not committed yet in run
	// order, pending the jobs committed and not merged yet, oldest first,
	// and kids counts their negations; dropped holds the runs a stop left
	// uncommitted; free holds merged jobs for reuse; self solves the jobs
	// the merge solves itself.
	started int
	longest struct{ conds, ids int } // the longest path's constraints and their variables
	running []*job
	pending []*job
	kids    int
	dropped []*job
	free    []*job
	self    *worker
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
		opts: opts,
		seen: make(map[string]bool),
	}
}

// pathCond is one collected constraint with its branch site.
type pathCond struct {
	site *lang.BranchSite
	c    sym.Constraint
}

// tracer is the branch sink of one exploration run: it labels branch
// locations, counts their executions into slices indexed by branch ID
// (folded into the exploration's counts when the run commits, and into the
// Report's maps once, when the exploration ends) and collects the path
// condition.
type tracer struct {
	labels   []Label
	execs    []int64
	symExecs []int64
	conds    []pathCond
}

// newTracer returns a tracer over nb branches.
func newTracer(nb int) tracer {
	return tracer{labels: make([]Label, nb), execs: make([]int64, nb), symExecs: make([]int64, nb)}
}

// OnBranch implements vm.BranchSink.
func (t *tracer) OnBranch(site *lang.BranchSite, cond vm.Value, taken bool) error {
	id := site.ID
	t.execs[id]++
	if cond.IsSymbolic() {
		t.symExecs[id]++
		t.labels[id] = Symbolic // symbolic is sticky
		if len(t.conds) < maxPathConds {
			t.conds = append(t.conds, pathCond{
				site: site,
				c:    sym.Constraint{E: cond.Sym, Truth: taken},
			})
		}
		return nil
	}
	if t.labels[id] == Unvisited {
		t.labels[id] = Concrete
	}
	return nil
}

// fold adds run's counts to t's and zeroes run's. A label folds to the
// greater of the two (unvisited < concrete < symbolic), which is the label
// the runs give the branch in either order.
func (t *tracer) fold(run *tracer) {
	for i, n := range run.execs {
		if n == 0 {
			continue // never executed: unvisited, no symbolic executions
		}
		t.execs[i] += n
		t.symExecs[i] += run.symExecs[i]
		t.labels[i] = max(t.labels[i], run.labels[i])
		run.execs[i], run.symExecs[i], run.labels[i] = 0, 0, Unvisited
	}
}

// job is one run and the child generation it makes. A worker executes the
// run over the job's world and tracer, recording in failed what a run
// panics with and in skipped that the context was cancelled before it
// could start. Once the run commits, the job holds its input and path
// condition, the constraint variables slicing reads, and one result per
// negation point: the calling goroutine fills everything but kids before
// sending the job's tasks; each worker writes the kids of its tasks. A job
// whose negations the queue cap could cut is not sent: the merge solves
// them itself (atMerge).
type job struct {
	parent  sym.MapAssignment
	w       *world.World
	tr      tracer
	failed  any
	skipped bool
	ran     bool // the run has ended (the calling goroutine's view)
	vars    pathVars
	stride  int          // negation point of kid i: i*stride
	kids    []child      // one per negation point
	run     int          // the run's number, 1 for the first
	left    atomic.Int32 // kids not solved yet
	solved  bool         // every kid is in (the calling goroutine's view)
	atMerge bool         // the merge solves the kids, in order
}

// child is the outcome of one negation.
type child struct {
	asn   sym.MapAssignment // parent overlaid with the solution; nil if none
	key   string            // the dedup key of asn
	stats solver.Stats      // what the solve added to the solver counters
}

// task is one negation for a worker: kid i of job j.
type task struct {
	j *job
	i int
}

// Explore runs the analysis until its budget is exhausted, the context is
// cancelled, or its deadline passes, and returns the labeling report. The
// context subsumes the TimeBudget option: whichever bound fires first stops
// exploration. No run starts once it has fired; the runs under way finish
// and count, up to the first run in run order that it kept from starting,
// the child solves under way finish, and no goroutine Explore started
// outlives it. A VM-internal error in a run panics on the calling
// goroutine when that run's turn to commit comes, once the workers have
// stopped.
func (e *Explorer) Explore(ctx context.Context) *Report {
	e.report = Report{}
	e.counts = newTracer(len(e.prog.Branches))

	start := time.Now()
	var cancel context.CancelFunc
	if e.opts.TimeBudget > 0 {
		ctx, cancel = context.WithDeadline(ctx, start.Add(e.opts.TimeBudget))
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	// The channels have room for every run and task the pipeline can hold,
	// so no send ever blocks: at most maxInFlight runs are out, and fewer
	// than 2*maxInFlight jobs pending (under maxInFlight when the last run
	// was handed out, plus one per run out then).
	runs := make(chan *job, maxInFlight)
	ran := make(chan *job, maxInFlight)
	tasks := make(chan task, 2*maxInFlight*maxChildrenPerRun)
	done := make(chan *job, 2*maxInFlight)
	var workers sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		workers.Add(1)
		go func() {
			defer workers.Done()
			e.work(ctx, runs, tasks, ran, done)
		}()
	}
	defer func() {
		// Also on a panicking commit: the runs not started yet are
		// skipped, the workers finish what they hold and exit, and the
		// runs never committed give up their variables.
		cancel()
		close(runs)
		close(tasks)
		workers.Wait()
		for _, j := range append(e.dropped, e.running...) {
			if j.w != nil {
				j.w.Discard()
			}
		}
		e.running, e.pending, e.kids, e.dropped, e.free, e.self = nil, nil, 0, nil, nil, nil
	}()

	e.queue = []sym.MapAssignment{{}} // initial run: all-seed input
	e.started = 0
	e.longest.conds, e.longest.ids = 0, 0
	stopped := false
	for {
		stopped = e.commit(tasks) || stopped
		e.collect()
		// Hand out the head of the queue: exactly the runs the sequential
		// loop would make next. When the queue is empty, the next run is a
		// child of a run under way or of a pending job.
		for !stopped && ctx.Err() == nil && len(e.queue) > 0 && e.started < e.opts.MaxRuns &&
			len(e.running) < maxInFlight && len(e.pending) < maxInFlight {
			e.dispatch(runs)
		}
		if len(e.running) == 0 && len(e.pending) == 0 {
			break
		}
		select {
		case j := <-ran:
			j.ran = true
		case j := <-done:
			j.solved = true
		}
	}

	e.report.Elapsed = time.Since(start)
	e.report.SolverStats = e.stats
	e.foldCounts()
	return &e.report
}

// dispatch hands the head of the queue to the workers as the next run.
func (e *Explorer) dispatch(runs chan<- *job) {
	j := e.newJob()
	j.parent = e.queue[0]
	e.queue = e.queue[1:]
	e.started++
	j.run = e.started
	j.tr.conds = j.tr.conds[:0]
	j.failed, j.skipped, j.ran, j.solved, j.atMerge = nil, false, false, false, false
	e.running = append(e.running, j)
	runs <- j
}

// commit commits the ended runs at the head of running, in run order: it
// numbers each run's new variables, folds its counts in and hands its
// negations to the workers (submit). It reports whether the exploration
// stopped: a run's turn came and the context had been cancelled before it
// could start. Every run that started is committed in its turn, as the
// sequential loop finished the run under way when the context fired.
func (e *Explorer) commit(tasks chan<- task) (stopped bool) {
	for len(e.running) > 0 && e.running[0].ran {
		j := e.running[0]
		if j.skipped {
			e.drop()
			return true
		}
		if j.failed != nil {
			// A VM-internal error means a bug in this repository, not in
			// the analyzed program. Surface it loudly; the deferred
			// cleanup joins the workers first.
			panic(j.failed)
		}
		e.running = append(e.running[:0], e.running[1:]...)
		j.w.Commit()
		e.report.Runs++
		e.counts.fold(&j.tr)
		if e.report.Runs >= e.opts.MaxRuns {
			e.free = append(e.free, j) // the budget is spent; children would be wasted
		} else {
			e.submit(j, tasks)
		}
	}
	return false
}

// drop leaves the runs still running uncommitted. Their inputs go back to
// the head of the queue, where the sequential loop left them, for the
// queue cap of the merges still to come.
func (e *Explorer) drop() {
	back := make([]sym.MapAssignment, 0, len(e.running)+len(e.queue))
	for _, j := range e.running {
		back = append(back, j.parent)
	}
	e.queue = append(back, e.queue...)
	e.started -= len(e.running)
	e.dropped = append(e.dropped, e.running...)
	e.running = nil
}

// foldCounts moves the committed runs' per-branch counts into the report:
// every branch gets a label, branches executed at least once an execution
// count.
func (e *Explorer) foldCounts() {
	r, t := &e.report, &e.counts
	r.Labels = make(map[lang.BranchID]Label, len(t.labels))
	r.ExecCount = make(map[lang.BranchID]int64)
	r.SymExecCount = make(map[lang.BranchID]int64)
	for i, l := range t.labels {
		id := lang.BranchID(i)
		r.Labels[id] = l
		if n := t.execs[i]; n > 0 {
			r.ExecCount[id] = n
			r.BranchExecs += n
		}
		if n := t.symExecs[i]; n > 0 {
			r.SymExecCount[id] = n
			r.SymbolicExecs += n
		}
	}
}

// execute runs job j's input on a worker, unless the context was cancelled
// first. What the run panics with, and a VM-internal error, is kept in
// j.failed for the run's commit to raise.
func (e *Explorer) execute(ctx context.Context, j *job) {
	if ctx.Err() != nil {
		j.skipped = true
		return
	}
	defer func() {
		if p := recover(); p != nil {
			j.failed = p
		}
	}()
	if j.w == nil {
		j.w = world.NewWorld(e.spec, e.reg, j.parent)
	} else {
		j.w.Rebind(j.parent)
	}
	cfg := j.w.KernelConfig()
	cfg.Mode = oskernel.ModeRecord
	kern := oskernel.New(cfg)
	machine := e.opts.Engine(e.prog, vm.Options{
		Kernel: kern,
		Sink:   &j.tr,
		World:  j.w,
	})
	// Crashes and budget blowups during analysis are expected: exploration
	// inputs routinely trip the planted bugs. Only real VM errors matter.
	if _, err := machine.Run(); err != nil {
		j.failed = err
	}
}

// newJob returns a merged job for reuse, or a new one.
func (e *Explorer) newJob() *job {
	if n := len(e.free); n > 0 {
		j := e.free[n-1]
		e.free = e.free[:n-1]
		return j
	}
	// Sized for the longest path so far: a new job's buffers would
	// otherwise grow from nothing, once for every job the pipeline holds.
	j := &job{tr: newTracer(len(e.prog.Branches))}
	j.tr.conds = make([]pathCond, 0, e.longest.conds)
	j.vars.ids = make([]int, 0, e.longest.ids)
	return j
}

// submit hands a run's negations to the workers (generational search). Two
// standard concolic optimizations keep this tractable on deep paths:
//
//   - the number of children per run is capped, with negation sites spread
//     evenly over the path so deep branches still get explored;
//   - unrelated constraint elimination: each child problem contains only the
//     prefix constraints transitively sharing variables with the negated
//     one (slicer.slice).
//
// The queue the job's merge sees, with the runs started since the job's
// run counted in it, holds at most what it holds now plus a child for every
// negation of the pending jobs. When that leaves room for all k children,
// the queue cap cannot cut the job and the workers solve it; otherwise the
// merge solves its negations in order, stopping at the cap, so no solve is
// made that the cap would drop.
func (e *Explorer) submit(j *job, tasks chan<- task) {
	n := len(j.tr.conds)
	if n == 0 {
		e.free = append(e.free, j) // no symbolic branch, no children
		return
	}
	j.vars.collect(j.tr.conds)
	e.longest.conds = max(e.longest.conds, n)
	e.longest.ids = max(e.longest.ids, len(j.vars.ids))
	j.stride = max(1, n/maxChildrenPerRun)
	k := (n + j.stride - 1) / j.stride
	j.kids = slices.Grow(j.kids[:0], k)[:k]
	j.atMerge = len(e.queue)+(e.started-j.run)+e.kids+k > maxQueue
	j.solved = j.atMerge
	e.pending = append(e.pending, j)
	e.kids += k
	if j.atMerge {
		return
	}
	j.left.Store(int32(k))
	for i := range k {
		tasks <- task{j, i}
	}
}

// collect merges every solved job at the head of pending.
func (e *Explorer) collect() {
	for len(e.pending) > 0 && e.pending[0].solved {
		j := e.pending[0]
		e.pending = append(e.pending[:0], e.pending[1:]...)
		e.kids -= len(j.kids)
		e.merge(j)
		e.free = append(e.free, j)
	}
}

// merge queues job j's children in negation order, as the sequential loop
// would have made them. Its queue cap counts the runs started since j's
// run as still queued, since without the pipeline they would have been.
// Only a job solved at the merge can meet the cap (see submit), and each of
// its negations is solved only once the cap check before it has passed.
func (e *Explorer) merge(j *job) {
	started := e.started - j.run
	for i := range j.kids {
		if len(e.queue)+started >= maxQueue {
			break
		}
		c := &j.kids[i]
		if j.atMerge {
			if e.self == nil {
				e.self = newWorker()
			}
			*c = e.self.solve(e.reg, j, i*j.stride)
		}
		e.stats.Add(c.stats)
		if c.asn == nil || e.seen[c.key] {
			continue
		}
		e.seen[c.key] = true
		e.queue = append(e.queue, c.asn)
	}
	clear(j.kids) // drop the assignments; the queue holds the ones kept
	j.parent = nil
}

// worker is what one goroutine needs to solve negations: its own solver
// and scratch. The solver is new, not from the free list replay searches
// share: the analysis grows its tables to thousands of slots, and with
// those tables handed on, perfbench's two-run coreutils reproductions read
// about 2% slower (reproduce_vs_run).
type worker struct {
	slv    *solver.Solver
	sl     slicer
	varBuf []int
	domBuf []solver.VarDomain
	ids    []int  // key scratch
	keyBuf []byte // key scratch
}

// newWorker returns a worker with a new solver.
func newWorker() *worker {
	return &worker{slv: solver.New(solver.Options{})}
}

// work executes runs and solves tasks until both channels close, taking a
// run first whenever one is waiting: runs make the work. It sends each
// ended run to ran, and each job whose last kid it solved to done.
func (e *Explorer) work(ctx context.Context, runs <-chan *job, tasks <-chan task, ran, done chan<- *job) {
	w := newWorker()
	for runs != nil || tasks != nil {
		j, t, isRun, ok := receive(runs, tasks)
		switch {
		case isRun && !ok:
			runs = nil
		case isRun:
			e.execute(ctx, j)
			ran <- j
			// Let the calling goroutine, which the send made runnable on
			// this P, commit the run now: without the yield it waits until
			// this worker blocks, and on an exploration bound by its solves
			// no run is handed out meanwhile (mkdir at two CPUs ran 21%
			// slower).
			runtime.Gosched()
		case !ok:
			tasks = nil
		default:
			j := t.j
			j.kids[t.i] = w.solve(e.reg, j, t.i*j.stride)
			if j.left.Add(-1) == 0 {
				done <- j
				runtime.Gosched() // let the job merge now, as above
			}
		}
	}
}

// receive takes a worker's next item: a waiting run, else whichever of a
// run and a task comes first.
func receive(runs <-chan *job, tasks <-chan task) (j *job, t task, isRun, ok bool) {
	select {
	case j, ok = <-runs:
		return j, t, true, ok
	default:
	}
	select {
	case j, ok = <-runs:
		return j, t, true, ok
	case t, ok = <-tasks:
		return nil, t, false, ok
	}
}

// solve negates constraint at of j's path condition and solves its slice.
// Dropping the constraints unrelated to the negation cannot make it
// unsolvable; the child input may diverge earlier on the path, which
// exploration tolerates (it is not replay).
func (w *worker) solve(reg *world.Registry, j *job, at int) child {
	sliced := w.sl.slice(j.tr.conds, &j.vars, at)
	w.varBuf = sym.ConstraintVarIDs(sliced, w.varBuf)
	w.domBuf = reg.Domains(w.varBuf, w.domBuf)
	w.slv.ResetStats()
	asn, ok := w.slv.Solve(solver.Problem{
		Constraints: sliced,
		Domains:     w.domBuf,
		Seed:        j.parent,
	})
	c := child{stats: w.slv.Stats()}
	if ok {
		c.asn = j.parent.Overlay(asn)
		c.key = w.key(c.asn)
	}
	return c
}

// pathVars lists the variable IDs of each constraint of one path
// condition, collected once per run: those of constraint j are
// ids[end[j]:end[j+1]].
type pathVars struct {
	ids, end []int
	maxID    int
}

// collect lists the variable IDs of conds.
func (pv *pathVars) collect(conds []pathCond) {
	pv.ids, pv.end = pv.ids[:0], append(pv.end[:0], 0)
	for _, pc := range conds {
		pv.ids = sym.AppendVarIDs(pc.c.E, pv.ids)
		pv.end = append(pv.end, len(pv.ids))
	}
	pv.maxID = -1
	if len(pv.ids) > 0 {
		pv.maxID = slices.Max(pv.ids)
	}
}

// slicer is the slicing scratch of one worker: mark[id] == epoch marks
// variable id relevant to the slice being built (registry IDs are dense),
// so a new slice bumps the epoch instead of clearing the table.
type slicer struct {
	mark   []uint32
	epoch  uint32
	sliced []sym.Constraint
}

// slice returns constraint i of conds negated, preceded in prefix order by
// the prefix constraints sharing a variable with it or with a constraint
// kept after them (one backward pass from i-1 to 0). pv holds the
// variables of conds. The slice is scratch, valid until the next call.
func (s *slicer) slice(conds []pathCond, pv *pathVars, i int) []sym.Constraint {
	if need := pv.maxID + 1; need > len(s.mark) {
		s.mark = append(s.mark, make([]uint32, need-len(s.mark))...)
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale marks could alias the new epoch
		clear(s.mark)
		s.epoch = 1
	}
	for _, v := range pv.ids[pv.end[i]:pv.end[i+1]] {
		s.mark[v] = s.epoch
	}
	s.sliced = s.sliced[:0]
	for j := i - 1; j >= 0; j-- {
		vars := pv.ids[pv.end[j]:pv.end[j+1]]
		if !slices.ContainsFunc(vars, func(v int) bool { return s.mark[v] == s.epoch }) {
			continue
		}
		s.sliced = append(s.sliced, conds[j].c)
		for _, v := range vars {
			s.mark[v] = s.epoch
		}
	}
	slices.Reverse(s.sliced)
	s.sliced = append(s.sliced, conds[i].c.Negated())
	return s.sliced
}

// key renders asn's canonical dedup key: its variable IDs in order, each
// with its value. Only the string is allocated; the ID list and the byte
// buffer are the worker's scratch.
func (w *worker) key(asn sym.MapAssignment) string {
	w.ids = w.ids[:0]
	for id := range asn {
		w.ids = append(w.ids, id)
	}
	slices.Sort(w.ids)
	buf := w.keyBuf[:0]
	for _, id := range w.ids {
		buf = strconv.AppendInt(buf, int64(id), 10)
		buf = append(buf, '=')
		buf = strconv.AppendInt(buf, asn[id], 10)
		buf = append(buf, ';')
	}
	w.keyBuf = buf
	return string(buf)
}
