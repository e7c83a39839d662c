package replay

import (
	"context"
	"fmt"
	"time"

	"pathlog/internal/freelist"
	"pathlog/internal/instrument"
	"pathlog/internal/ir"
	"pathlog/internal/lang"
	"pathlog/internal/obs"
	"pathlog/internal/oskernel"
	"pathlog/internal/solver"
	"pathlog/internal/sym"
	"pathlog/internal/trace"
	"pathlog/internal/vm"
	"pathlog/internal/world"
)

// Options bound the replay effort. TimeBudget is the paper's one-hour
// cutoff, scaled; exceeding it reports TimedOut (the ∞ entries of Tables 3,
// 5 and 6). The context passed to Reproduce subsumes both bounds: its
// cancellation or deadline stops the search within one run.
type Options struct {
	MaxRuns    int           // 0 means DefaultMaxRuns
	TimeBudget time.Duration // 0 means no limit
	// Engine builds the execution machine for each run; nil uses the
	// bytecode VM (ir.Engine), as every layer does. Concurrent searches
	// (corpus shards) share one factory, so it must be safe for concurrent
	// calls.
	Engine vm.Factory
	// Obs, when set, receives per-run distribution observations
	// (pathlog_replay_run_ns, pathlog_replay_solver_calls_per_run,
	// pathlog_replay_logged_bits_per_run), counts the runs that followed the
	// log past a divergence (pathlog_replay_follow_runs_total) and adds each
	// search's unproven solver outcomes (pathlog_replay_solver_unsat_total,
	// pathlog_replay_solver_gaveup_total). Each observation is a handful of
	// atomic adds, so instrumenting every run does not disturb the search
	// hot path.
	Obs *obs.Registry
}

// Replay histogram layouts: run latency from 1µs up (×4 per bucket),
// solver calls and logged bits from 1 up (×2 per bucket) behind a bucket
// bounded at 0. Runs that solve nothing or consume no bit are common (the
// all-seed run solves nothing), and their own bucket keeps a quantile that
// lands on them at 0 instead of interpolating across [0, 1]. First
// registration wins, so every engine in the process shares one layout.
var (
	runNSBuckets       = obs.ExpBuckets(1000, 4, 16)
	solverCallsBuckets = append([]float64{0}, obs.ExpBuckets(1, 2, 12)...)
	loggedBitsBuckets  = append([]float64{0}, obs.ExpBuckets(1, 2, 16)...)
)

// DefaultMaxRuns is the run budget of a search that sets none.
const DefaultMaxRuns = 2000

// Recording is everything the developer has when a bug report arrives: the
// plan (kept at instrumentation time), the branch bitvector, the optional
// syscall-result log, and the crash site from the report.
type Recording struct {
	// Plan is the instrumentation plan the recording was taken under. It is
	// nil on a stamped-only reference recording (envelope version 3, see
	// SaveRef), which carries only the Fingerprint stamp; the developer site
	// resolves the retained plan from a plan store before replaying.
	Plan   *instrument.Plan
	Trace  *trace.Trace
	SysLog *oskernel.SyscallLog // nil when syscall logging was off
	Crash  vm.CrashInfo
	// Fingerprint is the stamp of the plan the recording was taken under
	// (instrument.Plan.Fingerprint). Replay refuses a recording whose stamp
	// disagrees with its plan or program instead of silently searching under
	// the wrong plan. Empty on recordings from before stamping existed.
	Fingerprint string
	// ProgHash identifies the program the recording was taken on
	// (lang.Program.Hash). It lets a developer site refuse a
	// wrong-program report before plan resolution; empty on envelopes from
	// before it was stamped (the plan's own ProgHash still protects those).
	ProgHash string
}

// Validate checks the recording's internal consistency and its fit to a
// program: every instrumented branch ID must exist in prog, the plan must
// match the fingerprint stamp, and the trace must be present.
func (r *Recording) Validate(prog *lang.Program) error {
	if r.Plan == nil {
		if r.Fingerprint != "" {
			return fmt.Errorf("replay: recording carries no plan, only the fingerprint stamp %s — resolve the retained plan from a plan store (Session WithPlanStore) before replaying",
				r.Fingerprint)
		}
		return fmt.Errorf("replay: recording has no plan")
	}
	if r.Trace == nil {
		return fmt.Errorf("replay: recording has no branch trace")
	}
	if err := r.Plan.ValidateForProgram(prog); err != nil {
		return fmt.Errorf("replay: recording does not fit the program: %w", err)
	}
	if r.Fingerprint != "" {
		if got := r.Plan.Fingerprint(); got != r.Fingerprint {
			return fmt.Errorf("replay: recording was taken under plan %s, but its plan hashes to %s (plan/recording mismatch)",
				r.Fingerprint, got)
		}
	}
	return nil
}

// Result summarizes one reproduction attempt.
type Result struct {
	Reproduced bool
	TimedOut   bool
	// Cancelled reports that the context was cancelled (not merely past its
	// deadline) before a reproduction was found.
	Cancelled bool
	Runs      int
	Aborts    int
	Elapsed   time.Duration
	// Input is the reproducing assignment (a set of inputs that activates
	// the bug — not necessarily the user's input).
	Input sym.MapAssignment
	// InputBytes is the reproducing input rendered as concrete bytes per
	// stream — the artifact the developer actually uses.
	InputBytes map[string][]byte
	// Stats over the successful run's path, for Tables 4, 7 and 8.
	SymLoggedLocs     int
	SymLoggedExecs    int64
	SymNotLoggedLocs  int
	SymNotLoggedExecs int64
	SolverStats       solver.Stats
	PendingPeak       int
	// DuplicatePaths counts the runs whose path an earlier run of the
	// search had already expanded; such a run queues nothing. Dropped
	// counts the alternatives a cap discarded (maxPending, or a path
	// condition past maxRunConds). A search that exhausts its pending list
	// without a reproduction owes its failure to a Dropped set or a
	// solver give-up (SolverStats.GaveUp): the recorded input is a witness.
	DuplicatePaths int
	Dropped        int
	// Profile attributes the search's cost per branch site: forks, aborted
	// runs, solver calls and time. It is always populated — a search that
	// timed out is exactly the one whose attribution the refinement loop
	// needs.
	Profile *instrument.SearchProfile
}

// Engine reproduces one recorded bug.
type Engine struct {
	prog *lang.Program
	spec *world.Spec
	reg  *world.Registry
	rec  *Recording
	opts Options
	// instrTab is the plan's dense branch table (instrument.Plan.Table),
	// so the per-branch-execution sink avoids a map lookup.
	instrTab []bool
	// Per-run histograms, resolved once at construction when Options.Obs is
	// set; nil otherwise, and the search loop skips the observations.
	runNS       *obs.Histogram
	solverCalls *obs.Histogram
	loggedBits  *obs.Histogram
	followRuns  *obs.Counter
	unsat       *obs.Counter
	gaveUp      *obs.Counter
	duplicates  *obs.Counter
}

// New creates a replay engine. The registry may be fresh: variable identity
// is reconstructed deterministically from stream coordinates.
func New(prog *lang.Program, spec *world.Spec, reg *world.Registry, rec *Recording, opts Options) *Engine {
	if opts.MaxRuns <= 0 {
		opts.MaxRuns = DefaultMaxRuns
	}
	if opts.Engine == nil {
		opts.Engine = ir.Engine
	}
	e := &Engine{
		prog:     prog,
		spec:     spec,
		reg:      reg,
		rec:      rec,
		opts:     opts,
		instrTab: rec.Plan.Table(),
	}
	if opts.Obs != nil {
		e.runNS = opts.Obs.Histogram("pathlog_replay_run_ns", runNSBuckets)
		e.solverCalls = opts.Obs.Histogram("pathlog_replay_solver_calls_per_run", solverCallsBuckets)
		e.loggedBits = opts.Obs.Histogram("pathlog_replay_logged_bits_per_run", loggedBitsBuckets)
		e.followRuns = opts.Obs.Counter("pathlog_replay_follow_runs_total")
		e.unsat = opts.Obs.Counter("pathlog_replay_solver_unsat_total")
		e.gaveUp = opts.Obs.Counter("pathlog_replay_solver_gaveup_total")
		e.duplicates = opts.Obs.Counter("pathlog_replay_duplicate_paths_total")
	}
	return e
}

// pendingSet is one unexplored alternative: a prefix of the producing run's
// path condition plus one appended constraint, and the input of that run
// (used as the solver seed). The prefix is stored as a length into the run's
// final constraint slice — runs only append, so the first prefixLen entries
// are exactly the prefix at push time. Materializing lazily keeps pushing
// O(1); the eager-clone alternative is quadratic in path length and stalls
// diff-sized runs.
type pendingSet struct {
	runConds  []sym.Constraint
	prefixLen int
	appended  sym.Constraint
	parent    sym.MapAssignment
	// origin is the branch site whose alternative this set explores: the
	// uninstrumented symbolic branch that forked (case 1) or the first
	// instrumented branch whose recorded direction the run contradicted
	// (case 2b), which owns both the forced fallback and the followed
	// run's whole path. Solver effort and the resulting run's outcome are
	// charged to it in the search profile.
	origin lang.BranchID
}

// Search caps. maxRunConds caps the collected path condition per replay
// run; beyond the cap, case-1 alternatives are no longer queued (extremely
// long paths only). maxPending caps the pending list; Result.Dropped counts
// what either cap discards.
const (
	maxRunConds = 8192
	maxPending  = 100000
)

// runSink is the per-run branch sink implementing the four cases.
type runSink struct {
	eng    *Engine
	reader trace.Reader
	asn    sym.MapAssignment
	conds  []sym.Constraint
	queued []pendingSet

	mismatch bool // the run contradicted or outran the log (2b, 3b, exhausted)

	// path identifies the run's path for the search's dedup: a hash over
	// the sequence of symbolic branch directions (cases 1 and 2) within
	// the collected path condition, with the run's first case-2b
	// divergence folded in — exactly what decides the sets the run queues.
	path uint64
	// dropped counts the alternatives this run could not queue (the
	// maxPending cap, or a case-1 fork past maxRunConds).
	dropped int

	// following is set at the run's first case-2b divergence: from there
	// on the run takes every logged direction (vm.ErrFollowLog) instead of
	// aborting, and its whole path condition becomes one pending set.
	// followOrigin is that first divergent branch.
	following    bool
	followOrigin lang.BranchID

	// Per-location stats over this run (symbolic executions only), indexed
	// by BranchID (IDs are dense resolution indices). Dense tables instead
	// of maps: OnBranch runs once per branch execution and the counters are
	// merged once per run.
	symExecLogged    []int64
	symExecNotLogged []int64
	// forks counts case-1 pending alternatives actually queued per branch
	// site this run — the per-run slice of the search profile.
	forks []int64
	// loggedExecs counts log bits consumed per instrumented branch this run
	// (cases 2 and 3); disagrees counts the bits that contradicted the
	// run's own direction (case-2b divergences, case-3b mismatches).
	// Together they are the demotion evidence: an instrumented branch with
	// consumed bits and zero disagreements corpus-wide never constrained
	// any search.
	loggedExecs []int64
	disagrees   []int64
}

// OnBranch implements vm.BranchSink.
func (s *runSink) OnBranch(site *lang.BranchSite, cond vm.Value, taken bool) error {
	symbolic := cond.IsSymbolic()
	tab := s.eng.instrTab
	instrumented := int(site.ID) < len(tab) && tab[site.ID]

	switch {
	case symbolic && !instrumented:
		// Case 1: unlogged symbolic branch — both directions are possible.
		s.symExecNotLogged[site.ID]++
		// A run that follows the log past a divergence queues no forks: its
		// concrete state no longer matches its path, and the whole path is
		// queued when it ends.
		c := sym.Constraint{E: cond.Sym, Truth: taken}
		if len(s.conds) < maxRunConds {
			if !s.following && s.pushPending(site.ID, c.Negated()) {
				s.forks[site.ID]++
			}
			s.conds = append(s.conds, c)
			s.step(site.ID, taken)
		} else if !s.following {
			s.dropped++
		}
		return nil

	case symbolic && instrumented:
		// Case 2: the log dictates the direction.
		s.symExecLogged[site.ID]++
		logged, ok := s.reader.Next()
		if !ok {
			// Log exhausted: this run has executed more instrumented
			// branches than the recording — a diverged path. Abort.
			s.mismatch = true
			return vm.ErrAbortRun
		}
		s.loggedExecs[site.ID]++
		if logged == taken {
			if len(s.conds) < maxRunConds {
				s.conds = append(s.conds, sym.Constraint{E: cond.Sym, Truth: taken})
				s.step(site.ID, taken)
			}
			return nil
		}
		// 2b: the bit just constrained the search — charge the
		// disagreement. The first one queues the forced set (prefix plus
		// the recorded direction) as a fallback; from there on the run
		// follows the log, collecting each recorded direction.
		s.disagrees[site.ID]++
		c := sym.Constraint{E: cond.Sym, Truth: logged}
		if !s.following {
			s.pushPending(site.ID, c)
			s.following, s.followOrigin, s.mismatch = true, site.ID, true
			s.path ^= followMark
		}
		if len(s.conds) < maxRunConds {
			s.conds = append(s.conds, c)
			s.step(site.ID, logged)
		}
		return vm.ErrFollowLog

	case !symbolic && instrumented:
		// Case 3: concrete and logged — agreement check only.
		logged, ok := s.reader.Next()
		if !ok || logged != taken {
			// 3b: a wrong earlier turn at an uninstrumented symbolic branch.
			// A consumed-but-contradicted bit pruned this diverged run, so
			// it counts as a disagreement (an exhausted log consumed no bit
			// and charges nothing). A run already following the log keeps
			// following it; the concrete condition adds no constraint.
			s.mismatch = true
			if !ok {
				return vm.ErrAbortRun
			}
			s.loggedExecs[site.ID]++
			s.disagrees[site.ID]++
			if s.following {
				return vm.ErrFollowLog
			}
			return vm.ErrAbortRun
		}
		s.loggedExecs[site.ID]++
		return nil

	default:
		// Case 4: concrete, not instrumented.
		return nil
	}
}

// FNV-1a over one 64-bit word per symbolic branch execution: the site ID
// shifted left by one, with the direction in the low bit. followMark
// separates a path that follows the log from the same directions taken
// freely: the two queue different sets.
const (
	pathOffset = 14695981039346656037
	pathPrime  = 1099511628211
	followMark = 0x9E3779B97F4A7C15
)

// step extends the run's path key by one symbolic branch direction.
func (s *runSink) step(id lang.BranchID, dir bool) {
	w := uint64(id) << 1
	if dir {
		w |= 1
	}
	s.path = (s.path ^ w) * pathPrime
}

// pushPending queues the current prefix plus one appended constraint,
// reporting whether the set was actually queued (the per-run cap can drop
// it).
func (s *runSink) pushPending(origin lang.BranchID, appended sym.Constraint) bool {
	if len(s.queued) >= maxPending {
		s.dropped++
		return false
	}
	s.queued = append(s.queued, pendingSet{
		prefixLen: len(s.conds),
		appended:  appended,
		parent:    s.asn,
		origin:    origin,
	})
	return true
}

// noOrigin marks a run not seeded from any pending set (the initial
// all-seed run); its outcome is charged to no branch.
const noOrigin = lang.BranchID(-1)

// runScratch is a search's reusable buffers. Everything here is either
// copied out of (queued, mbuf) or fully overwritten (counts) before the next
// run touches it, so reuse is invisible to the search; the search stops on
// the reproducing run, which keeps its counter views intact for the final
// report. Searches take their scratch from the free list and return it when
// they end, so a reproduction of a few runs starts with every buffer grown.
type runScratch struct {
	vbuf   []int              // variable-ID collection buffer
	dbuf   []solver.VarDomain // their domains, handed to Solve
	mbuf   []sym.Constraint   // materialized conjunction handed to Solve
	counts []int64            // per-branch counter block, zeroed per run
	queued []pendingSet       // pending-set buffer, drained after each run
	sink   runSink            // the current run's sink
	// charged lists the branch sites the search has charged, in first
	// charge order.
	charged []lang.BranchID
	// stack backs the pending list, which routinely peaks at tens of
	// thousands of sets.
	stack    []pendingSet
	condsCap int // last run's path length, to size conds exactly
}

// scratchFree holds idle scratch between searches. Like the solver's free
// list, and unlike a sync.Pool, it survives garbage collection: a developer
// site collects between reports, and a pool would hand every other report
// fresh buffers.
var scratchFree freelist.List[*runScratch]

// getScratch takes the most recently returned scratch, or a new one.
func getScratch() *runScratch {
	if sc, ok := scratchFree.Get(nil); ok {
		return sc
	}
	return new(runScratch)
}

// putScratch drops every constraint and assignment the buffers still
// reference and returns sc to the free list; a full list drops its oldest.
func putScratch(sc *runScratch) {
	clear(sc.mbuf[:cap(sc.mbuf)])
	clear(sc.queued[:cap(sc.queued)])
	clear(sc.stack[:cap(sc.stack)])
	sc.mbuf, sc.queued, sc.stack = sc.mbuf[:0], sc.queued[:0], sc.stack[:0]
	sc.charged = sc.charged[:0]
	sc.sink = runSink{}
	sc.condsCap = 0
	scratchFree.Put(sc)
}

// counterBlock returns sc's counter block resized to n zeroed entries.
func (sc *runScratch) counterBlock(n int) []int64 {
	if cap(sc.counts) < n {
		sc.counts = make([]int64, n)
	}
	sc.counts = sc.counts[:n]
	clear(sc.counts)
	return sc.counts
}

// search is the state of one Reproduce call: the pending stack, the
// solver, the scratch buffers and the growing result.
type search struct {
	e     *Engine
	slv   *solver.Solver
	stack []pendingSet
	sc    *runScratch
	// costs is the search profile, one entry per branch site; the entries
	// a search charged (sc.charged) become SearchProfile.Branches.
	costs []instrument.BranchCost
	res   *Result
	// deadline is the TimeBudget's end, zero when there is none.
	deadline time.Time
	// expanded holds the path keys of the runs whose alternatives the
	// search has queued: a later run down one of these paths would queue
	// the same sets again, and the search would cycle.
	expanded map[uint64]struct{}
}

// charge returns the profile entry for a branch site. Every caller adds a
// positive amount to the entry, so an entry still zero is charged first.
func (s *search) charge(id lang.BranchID) *instrument.BranchCost {
	bc := &s.costs[id]
	if *bc == (instrument.BranchCost{}) {
		s.sc.charged = append(s.sc.charged, id)
	}
	return bc
}

// profile returns the charged entries of the search profile by branch.
func (s *search) profile() map[lang.BranchID]*instrument.BranchCost {
	out := make(map[lang.BranchID]*instrument.BranchCost, len(s.sc.charged))
	for _, id := range s.sc.charged {
		out[id] = &s.costs[id]
	}
	return out
}

// stopped reports whether the search must end before its next solve or run:
// the context fired or the time budget ran out (recorded as a timeout past a
// deadline, else as a cancellation), or the run budget is spent.
func (s *search) stopped(ctx context.Context) bool {
	if err := ctx.Err(); err != nil {
		if err == context.DeadlineExceeded {
			s.res.TimedOut = true
		} else {
			s.res.Cancelled = true
		}
		return true
	}
	if s.res.Runs >= s.e.opts.MaxRuns || !s.deadline.IsZero() && !time.Now().Before(s.deadline) {
		s.res.TimedOut = true
		return true
	}
	return false
}

// next pops pending sets newest-first (the paper's depth-first pick, §3.2)
// and solves them until one is satisfiable, returning the input of the run it
// seeds, the set's origin and the solver calls spent. ok is false when the
// search must end: nothing is pending, or the context or the budget fired.
func (s *search) next(ctx context.Context) (asn sym.MapAssignment, origin lang.BranchID, solves int, ok bool) {
	e := s.e
	for len(s.stack) > 0 {
		top := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		// Materialize into the scratch buffer: the solver copies what it
		// keeps, so the conjunction need not survive the call.
		conds := append(s.sc.mbuf[:0], top.runConds[:top.prefixLen]...)
		conds = append(conds, top.appended)
		s.sc.mbuf = conds
		vars := sym.ConstraintVarIDs(conds, s.sc.vbuf)
		s.sc.vbuf = vars
		s.sc.dbuf = e.reg.Domains(vars, s.sc.dbuf)
		solveStart := time.Now()
		solved, sat := s.slv.Solve(solver.Problem{
			Constraints: conds,
			Domains:     s.sc.dbuf,
			Seed:        top.parent,
		})
		solves++
		// The solving effort is charged to the branch whose alternative
		// demanded it, sat or not — unsat sets are pure search cost.
		bc := s.charge(top.origin)
		bc.SolverCalls++
		bc.SolverTime += time.Since(solveStart)
		if s.stopped(ctx) {
			return nil, noOrigin, solves, false
		}
		if sat {
			// The solver hands over a fresh map; a parent that binds
			// nothing (the all-seed run's) needs no copy under it.
			if len(top.parent) > 0 {
				solved = top.parent.Overlay(solved)
			}
			return solved, top.origin, solves, true
		}
	}
	return nil, noOrigin, solves, false
}

// account charges one completed run to the profile — its queued case-1
// forks and consumed log bits, and an abort to the branch whose set seeded
// it — and reports whether it reproduced the bug.
func (s *search) account(origin lang.BranchID, sink *runSink, vmRes vm.Result) bool {
	// A run down an already-expanded path queues none of its forks (push).
	if _, dup := s.expanded[sink.path]; !dup {
		for id, n := range sink.forks {
			if n != 0 {
				s.charge(lang.BranchID(id)).Forks += n
			}
		}
	}
	for id, n := range sink.loggedExecs {
		if n != 0 {
			s.charge(lang.BranchID(id)).LoggedExecs += n
		}
	}
	for id, n := range sink.disagrees {
		if n != 0 {
			s.charge(lang.BranchID(id)).Disagreements += n
		}
	}
	if s.e.isReproduction(sink, vmRes) {
		return true
	}
	s.res.Aborts++
	if origin != noOrigin {
		s.charge(origin).AbortedRuns++
	}
	return false
}

// push queues an aborted run's alternatives; deepest alternatives are
// pushed last and popped first (depth-first, §3.2). A run that followed
// the log adds its whole path condition last, above the forced fallback,
// so the next run tries the recorded path in one step and the fallback
// pops only if that path is unsatisfiable. The sets share the run's final
// constraint slice. A run down a path the search has already expanded
// queues nothing: each path is expanded once.
func (s *search) push(sink *runSink) {
	// The stack copies what it keeps; reclaim the buffer and remember the
	// path length for the next run's conds sizing.
	defer func() {
		s.sc.queued = sink.queued[:0]
		s.sc.condsCap = len(sink.conds)
	}()
	if _, dup := s.expanded[sink.path]; dup {
		s.res.DuplicatePaths++
		if s.e.duplicates != nil {
			s.e.duplicates.Inc()
		}
		return
	}
	s.expanded[sink.path] = struct{}{}
	s.res.Dropped += sink.dropped
	if n := len(sink.conds); sink.following && n > 0 {
		sink.queued = append(sink.queued, pendingSet{
			prefixLen: n - 1,
			appended:  sink.conds[n-1],
			parent:    sink.asn,
			origin:    sink.followOrigin,
		})
	}
	for i := range sink.queued {
		sink.queued[i].runConds = sink.conds
	}
	q := sink.queued
	if room := max(maxPending-len(s.stack), 0); len(q) > room {
		// Keep the newest sets: the followed path and its forced fallback
		// (case 2b) are pushed last and must survive the cap, or the
		// recorded path is lost.
		s.res.Dropped += len(q) - room
		q = q[len(q)-room:]
	}
	s.stack = append(s.stack, q...)
	if len(s.stack) > s.res.PendingPeak {
		s.res.PendingPeak = len(s.stack)
	}
}

// Reproduce runs the guided search until the bug is reproduced or the budget
// is exhausted. The search is one loop: take the next satisfiable pending
// set, run the program on its input, charge the run, and either stop on a
// reproduction or push the run's alternatives. The context and the run
// budget are checked before every solve and every run, so cancellation or a
// deadline stops the search within one run (each run is bounded by the
// VM's step limit).
func (e *Engine) Reproduce(ctx context.Context) *Result {
	growStack(0)
	start := time.Now()
	res := &Result{}
	sc := getScratch()
	s := &search{
		e:        e,
		slv:      solver.Get(solver.Options{}),
		stack:    sc.stack,
		sc:       sc,
		costs:    make([]instrument.BranchCost, len(e.prog.Branches)),
		res:      res,
		expanded: make(map[uint64]struct{}),
	}
	if e.opts.TimeBudget > 0 {
		s.deadline = start.Add(e.opts.TimeBudget)
	}
	var (
		winner *runSink
		winAsn sym.MapAssignment
	)
	// One world serves every run of the search, rebound to each run's
	// input: nothing of a run reads its materialized bytes once it ends,
	// and the search stops on the reproducing run, whose bytes it reads.
	// The first run is the all-seed run, charged to no branch.
	asn, origin, solves := sym.MapAssignment{}, noOrigin, 0
	wld := world.NewWorld(e.spec, e.reg, asn)
	for !s.stopped(ctx) {
		if res.Runs > 0 {
			var ok bool
			if asn, origin, solves, ok = s.next(ctx); !ok {
				break
			}
		}
		var runStart time.Time
		if e.runNS != nil {
			runStart = time.Now()
		}
		res.Runs++
		wld.Rebind(asn)
		sink, vmRes := e.runOnce(wld, sc)
		wld.Commit() // number the run's new variables before any solve reads them
		reproduced := s.account(origin, sink, vmRes)
		if e.runNS != nil {
			e.runNS.Observe(float64(time.Since(runStart).Nanoseconds()))
			e.solverCalls.Observe(float64(solves))
			var bits int64
			for _, n := range sink.loggedExecs {
				bits += n
			}
			e.loggedBits.Observe(float64(bits))
			if sink.following {
				e.followRuns.Inc()
			}
		}
		if reproduced {
			winner, winAsn = sink, asn
			break
		}
		s.push(sink)
	}

	res.Elapsed = time.Since(start)
	res.SolverStats = s.slv.Stats()
	solver.Put(s.slv) // back on the free list: the next search starts warm
	if e.unsat != nil {
		e.unsat.Add(int64(res.SolverStats.Unsat))
		e.gaveUp.Add(int64(res.SolverStats.GaveUp))
	}
	fp := e.rec.Fingerprint
	if fp == "" {
		fp = e.rec.Plan.Fingerprint()
	}
	res.Profile = &instrument.SearchProfile{
		ProgHash:        e.rec.Plan.ProgHash,
		PlanFingerprint: fp,
		Generation:      e.rec.Plan.Generation,
		Runs:            res.Runs,
		Aborts:          res.Aborts,
		Reproduced:      winner != nil,
		Solver:          res.SolverStats,
		Branches:        s.profile(),
	}
	if winner != nil {
		res.Reproduced = true
		res.Input = winAsn
		res.InputBytes = materializeAll(wld)
		fillPathStats(res, winner)
	}
	// The winner's counter views are read: the scratch can go back.
	sc.stack = s.stack
	putScratch(sc)
	return res
}

// stackReserve is the frame size of growStack. A garbage collection halves
// a goroutine's stack when it used little of it, and the user-site runs
// between two reports fit in the halved stack; a replay run's symbolic path
// (host call, input byte, registry, allocation) does not, so without the
// reserve the runtime regrows the stack deep inside the VM's dispatch loop
// and copies a dozen large frames. On coreutils reports a 4 KiB frame
// saved nothing, 6 to 12 KiB saved alike, and 16 KiB or more saved less;
// 12 KiB is the largest of the tie, for call chains deeper than coreutils'
// (see DESIGN.md, "Per-report fixed cost").
const stackReserve = 12 << 10

// growStack makes the runtime grow the stack by stackReserve while only
// Reproduce's shallow frames are live, so the copy is cheap and the search's
// runs do not grow it again. The index keeps the frame from being optimized
// away.
//
//go:noinline
func growStack(i uint) byte {
	var pad [stackReserve]byte
	return pad[i%stackReserve]
}

// materializeAll renders every declared input stream to concrete bytes.
func materializeAll(w *world.World) map[string][]byte {
	out := make(map[string][]byte, len(w.Spec.Args)+len(w.Spec.Files)+len(w.Spec.Conns))
	for _, a := range w.Spec.Args {
		out[a.Name] = w.MaterializeStream(a)
	}
	for _, f := range w.Spec.Files {
		out[f.Stream.Name] = w.MaterializeStream(f.Stream)
	}
	for _, c := range w.Spec.Conns {
		out[c.Stream.Name] = w.MaterializeStream(c.Stream)
	}
	return out
}

// runOnce executes the program once under the recorded guidance.
func (e *Engine) runOnce(w *world.World, sc *runScratch) (*runSink, vm.Result) {
	cfg := w.KernelConfig()
	if e.rec.SysLog != nil {
		// Each run consumes its own clone of the recorded results, so runs
		// (and concurrent searches of one recording) never share replay
		// cursors.
		cfg.Mode = oskernel.ModeReplayLogged
		cfg.Log = e.rec.SysLog.Clone()
	} else {
		cfg.Mode = oskernel.ModeReplayModel
		cfg.Model = w
		w.ModelSyscalls = true
	}
	kern := oskernel.New(cfg)
	n := len(e.prog.Branches)
	counts := sc.counterBlock(5 * n)
	// The scratch's one sink is safe to reuse: the search has consumed a
	// run's sink (account, push) before the next run starts, and it stops
	// on the reproducing run, whose sink it reads last.
	sink := &sc.sink
	*sink = runSink{
		eng:              e,
		reader:           *trace.NewReader(e.rec.Trace),
		asn:              w.Asn,
		conds:            make([]sym.Constraint, 0, sc.condsCap+16),
		path:             pathOffset,
		queued:           sc.queued[:0],
		symExecLogged:    counts[0*n : 1*n],
		symExecNotLogged: counts[1*n : 2*n],
		forks:            counts[2*n : 3*n],
		loggedExecs:      counts[3*n : 4*n],
		disagrees:        counts[4*n : 5*n],
	}
	machine := e.opts.Engine(e.prog, vm.Options{
		Kernel: kern,
		Sink:   sink,
		World:  w,
	})
	vmRes, err := machine.Run()
	if err != nil {
		panic(err) // VM-internal error: a bug in this repository
	}
	return sink, vmRes
}

// isReproduction checks the success criterion: the run crashed at the
// recorded site and consumed the entire bitvector without mismatch.
func (e *Engine) isReproduction(sink *runSink, vmRes vm.Result) bool {
	if sink.mismatch || !vmRes.Crashed {
		return false
	}
	if vmRes.Crash.Kind != e.rec.Crash.Kind || vmRes.Crash.Pos != e.rec.Crash.Pos {
		return false
	}
	return sink.reader.Exhausted()
}

func fillPathStats(res *Result, sink *runSink) {
	for _, n := range sink.symExecLogged {
		if n != 0 {
			res.SymLoggedExecs += n
			res.SymLoggedLocs++
		}
	}
	for _, n := range sink.symExecNotLogged {
		if n != 0 {
			res.SymNotLoggedExecs += n
			res.SymNotLoggedLocs++
		}
	}
}
