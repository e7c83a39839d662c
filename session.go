package pathlog

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pathlog/internal/concolic"
	"pathlog/internal/core"
	"pathlog/internal/instrument"
	"pathlog/internal/obs"
	"pathlog/internal/replay"
	"pathlog/internal/static"
	"pathlog/internal/store"
	"pathlog/internal/vm"
	"pathlog/internal/world"
)

// CrashInfo identifies a crash site (kind and source position); it is what a
// bug report carries instead of input bytes.
type CrashInfo = vm.CrashInfo

// sessionConfig collects everything the functional options configure.
type sessionConfig struct {
	name         string
	userBytes    map[string][]byte
	analysisSpec *Spec
	strategy     Strategy
	logSyscalls  bool
	dyn          DynamicOptions
	static       StaticOptions
	rep          ReplayOptions
	storeDir     string
	obs          *obs.Observer
}

// Option configures a Session; see the With* constructors.
type Option func(*sessionConfig)

// WithName labels the session. Remote shard workers rebuild the program
// from this name (CorpusOptions.Workers).
func WithName(name string) Option {
	return func(c *sessionConfig) { c.name = name }
}

// WithUserBytes sets the default user-site input used when Record or
// Reproduce is called with a nil map. The keys must name declared streams.
func WithUserBytes(user map[string][]byte) Option {
	return func(c *sessionConfig) { c.userBytes = user }
}

// WithAnalysisSpec runs the pre-deployment analyses over another input
// space than the session's own spec (the paper seeds exploration with
// developer test suites; see internal/apps.UServerAnalysisScenario). Branch
// labels transfer because both specs describe the same program.
func WithAnalysisSpec(spec *Spec) Option {
	return func(c *sessionConfig) { c.analysisSpec = spec }
}

// WithStrategy selects the instrumentation strategy the session plans
// with: a built-in (Dynamic, Static, All, None), a combinator composition
// (Union, Budgeted), or any custom Strategy. The
// default is the paper's headline configuration,
// Union(Dynamic(), StaticResidue()) — i.e. MethodDynamicStatic.
func WithStrategy(s Strategy) Option {
	return func(c *sessionConfig) { c.strategy = s }
}

// WithSyscallLog enables syscall-result logging in the instrumented build
// (§2.3): recordings then carry read()/select() results and replay does not
// need the symbolic syscall models of §3.3.
func WithSyscallLog() Option {
	return func(c *sessionConfig) { c.logSyscalls = true }
}

// WithDynamicBudget bounds the concolic analysis — the paper's coverage
// knob. maxRuns <= 0 keeps the default; budget 0 means no wall-clock limit.
func WithDynamicBudget(maxRuns int, budget time.Duration) Option {
	return func(c *sessionConfig) {
		c.dyn.MaxRuns = maxRuns
		c.dyn.TimeBudget = budget
	}
}

// WithStaticOptions configures the static analysis (e.g. LibAsSymbolic for
// the §5.3 library-as-symbolic mode).
func WithStaticOptions(o StaticOptions) Option {
	return func(c *sessionConfig) { c.static = o }
}

// WithReplayBudget bounds each reproduction attempt — the paper's one-hour
// cutoff, scaled. Nonsensical values are clamped at option-apply time with
// one documented rule: anything below zero becomes zero, the "use the
// default / no limit" value (maxRuns <= 0 keeps the default run budget;
// budget <= 0 means no wall-clock limit beyond the context's own deadline).
func WithReplayBudget(maxRuns int, budget time.Duration) Option {
	return func(c *sessionConfig) {
		c.rep.MaxRuns = clampNonNegative(maxRuns)
		c.rep.TimeBudget = clampDurNonNegative(budget)
	}
}

// clampNonNegative is the option-apply guard rule: negative counts become
// 0, the "use the default" value.
func clampNonNegative(n int) int {
	if n < 0 {
		return 0
	}
	return n
}

func clampDurNonNegative(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

// Observer re-exports the observability substrate a session carries: a
// metrics registry plus a span tracer (internal/obs). Either half may be
// nil.
type Observer = obs.Observer

// WithObserver attaches an observability substrate to the session. The
// user-site run's logged bits and buffer flushes (RecordWith), the replay
// engine's per-run distributions (runs, solver calls, logged bits) and the
// balance loop's phase timings land in the observer's registry,
// and every balance generation runs under a span recorded by the
// observer's tracer — propagated across the fleet's HTTP hops, so one
// session's trace links to the daemons that served it. Either half of the
// observer may be nil; a nil observer disables everything it would feed.
func WithObserver(o *Observer) Option {
	return func(c *sessionConfig) { c.obs = o }
}

// Observer returns the session's attached observer, or nil.
func (s *Session) Observer() *Observer { return s.cfg.obs }

// WithPlanStore backs the session with the on-disk plan store rooted at
// dir (created on first use), closing the deployment loop around the
// session's artifacts:
//
//   - every plan the session deploys (RecordWith) or refines
//     (RefineCorpus, AutoBalance, CorpusBalance) is retained in the store
//     under its fingerprint;
//   - Replay and ReplayCorpus resolve a stamped-only recording's exact
//     retained plan generation from the store by its fingerprint, so the
//     caller never tracks plan files — a stamp matching no retained plan
//     is refused by name;
//   - AutoBalance and Frontier append each measured (overhead, replay)
//     point to the store, and Frontier folds the retained measurements for
//     this program and workload back into its sweep, so refined
//     generations from earlier sessions compete for the frontier;
//   - the session seeds its stale-generation bookkeeping from the store's
//     lineage index, so refinement chains advanced by earlier sessions are
//     not silently rewound.
//
// The store keys measured points by (program hash, workload): the workload
// is the session's WorkloadHash — a hash over the input spec and the
// configured user bytes, so renamed sessions share one measured history.
// The directory is opened lazily; an unopenable or damaged store surfaces
// as an error from the first operation that needs it.
func WithPlanStore(dir string) Option {
	return func(c *sessionConfig) { c.storeDir = dir }
}

// Session is the top-level handle on the paper's workflow for one program
// and input space: analyze → plan → record → replay, with shared
// configuration and a cached analysis. A Session is safe for concurrent use;
// the analysis runs at most once.
type Session struct {
	prog *Program
	spec *Spec
	cfg  sessionConfig

	anMu   sync.Mutex // serializes the analysis computation
	mu     sync.Mutex // guards the caches below
	inputs *Inputs
	plans  map[planKey]*Plan
	pc     *instrument.PlanContext
	// Refinement lineage bookkeeping: which chain each refined plan belongs
	// to (keyed by fingerprint) and how far each chain has been refined, so
	// Refine can refuse a stale-generation recording instead of silently
	// rewinding the loop. With a plan store configured, the maps are seeded
	// from the store's lineage index, extending the staleness guarantee
	// across sessions; latestFP lets resumePlan fetch a chain head this
	// session never built (latestPlan holds only in-session plans).
	roots      map[string]string // plan fingerprint → root plan fingerprint
	latestGen  map[string]int    // root plan fingerprint → highest generation
	latestPlan map[string]*Plan  // root plan fingerprint → latest generation's plan
	latestFP   map[string]string // root plan fingerprint → latest generation's fingerprint

	// Plan store plumbing (WithPlanStore): opened lazily, at most once.
	storeOnce sync.Once
	st        *store.Store
	stErr     error

	// recordObs holds the user-site run's instruments in the observer's
	// registry; nil without one, so an unobserved session pays nothing.
	recordObs *recordMetrics
}

// recordMetrics are the instruments RecordWith feeds: the bits each
// user-site run logged and the flush-buffer writes they took.
type recordMetrics struct {
	loggedBits *obs.Histogram
	flushes    *obs.Counter
}

// recordBitsBuckets matches the replay engine's logged-bits layout: 0, then
// powers of two to 32768.
var recordBitsBuckets = append([]float64{0}, obs.ExpBuckets(1, 2, 16)...)

// planKey caches plans by strategy identity; strategy names are required
// to uniquely describe the decision (combinators compose names).
type planKey struct {
	strategy    string
	logSyscalls bool
}

// NewSession binds a compiled program to an input space under the given
// options.
func NewSession(prog *Program, spec *Spec, opts ...Option) *Session {
	cfg := sessionConfig{strategy: instrument.StrategyForMethod(MethodDynamicStatic)}
	for _, o := range opts {
		o(&cfg)
	}
	s := &Session{
		prog:       prog,
		spec:       spec,
		cfg:        cfg,
		plans:      make(map[planKey]*Plan),
		roots:      make(map[string]string),
		latestGen:  make(map[string]int),
		latestPlan: make(map[string]*Plan),
		latestFP:   make(map[string]string),
	}
	if reg := cfg.obs.Registry(); reg != nil {
		s.recordObs = &recordMetrics{
			loggedBits: reg.Histogram("pathlog_record_logged_bits", recordBitsBuckets),
			flushes:    reg.Counter("pathlog_record_flushes_total"),
		}
	}
	return s
}

// SessionOf wraps an existing Scenario: its name, program, spec and user
// bytes seed the session, and the options apply on top.
func SessionOf(scn *Scenario, opts ...Option) *Session {
	base := []Option{WithName(scn.Name), WithUserBytes(scn.UserBytes)}
	return NewSession(scn.Prog, scn.Spec, append(base, opts...)...)
}

// Program returns the session's compiled program.
func (s *Session) Program() *Program { return s.prog }

// Spec returns the session's input space.
func (s *Session) Spec() *Spec { return s.spec }

// PlanStore returns the session's plan store, opening (and creating) the
// WithPlanStore directory on first use. A session built without
// WithPlanStore returns (nil, nil). The first successful open also seeds
// the session's refinement-lineage bookkeeping from the store's lineage
// index for this program.
func (s *Session) PlanStore() (*store.Store, error) {
	if s.cfg.storeDir == "" {
		return nil, nil
	}
	s.storeOnce.Do(func() {
		st, err := store.Open(s.cfg.storeDir)
		if err != nil {
			s.stErr = err
			return
		}
		if err := s.seedLineage(st); err != nil {
			// A lineage index that cannot be read means generation
			// bookkeeping cannot be trusted: refuse the store loudly rather
			// than silently rewinding refinement chains.
			s.stErr = err
			return
		}
		s.st = st
	})
	return s.st, s.stErr
}

// PublishedPlan resolves the program's current chain-head plan from the
// session's plan store: the generation an intake service is serving to
// user sites right now (GET /plan/<proghash>), and therefore the plan
// fresh reports should arrive stamped with. A session without WithPlanStore,
// or a store with no retained plan for this program, is an error — there
// is no published generation to speak of.
func (s *Session) PublishedPlan() (*Plan, error) {
	st, err := s.PlanStore()
	if err != nil {
		return nil, err
	}
	if st == nil {
		return nil, fmt.Errorf("pathlog: PublishedPlan needs a plan store (WithPlanStore)")
	}
	return st.ChainHead(s.prog.Hash())
}

// seedLineage folds the store's lineage index for this program into the
// session's chain bookkeeping, so stale-generation refusal and AutoBalance
// resumption work across sessions, not just within one.
func (s *Session) seedLineage(st *store.Store) error {
	entries, err := st.Lineage(s.prog.Hash())
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Entries arrive in generation order, so every parent's root is
	// resolved before its children need it.
	for _, e := range entries {
		root := e.Fingerprint
		if e.Parent != "" {
			if r, ok := s.roots[e.Parent]; ok {
				root = r
			} else {
				root = e.Parent
				s.roots[e.Parent] = root
			}
		}
		if r, ok := s.roots[e.Fingerprint]; ok {
			root = r
		} else {
			s.roots[e.Fingerprint] = root
		}
		if e.Generation > s.latestGen[root] {
			s.latestGen[root] = e.Generation
			s.latestFP[root] = e.Fingerprint
		}
	}
	return nil
}

// persistPlan retains a plan in the session's plan store, when one is
// configured. A hand-built plan with no program hash has no deployment
// identity to file it under: deploying one through a store-backed session
// is an error (store.PutPlan names it), never a silent skip — a recording
// stamped with its fingerprint could otherwise never be resolved.
func (s *Session) persistPlan(plan *Plan) error {
	if plan == nil {
		return nil
	}
	st, err := s.PlanStore()
	if err != nil || st == nil {
		return err
	}
	return st.PutPlan(plan)
}

// ResolveRecording attaches the retained plan to a stamped-only recording
// (one loaded from a version-3 reference envelope, Plan == nil) by looking
// its fingerprint stamp up in the plan store. Recordings that already
// carry a plan pass through untouched; the caller's recording is never
// mutated — the resolved copy is returned. A stamp matching no retained
// plan, or a report whose program hash disagrees with the retained
// plan's, is refused with the identities named. Replay, ReplayCorpus and
// RefineCorpus resolve internally; this is exported for tools that want the
// resolved plan before replaying (to print or inspect it) without
// reimplementing the store checks.
func (s *Session) ResolveRecording(rec *Recording) (*Recording, error) {
	if rec == nil || rec.Plan != nil {
		return rec, nil
	}
	st, err := s.PlanStore()
	if err != nil {
		return nil, err
	}
	if st == nil {
		return nil, fmt.Errorf("pathlog: recording carries no plan, only fingerprint stamp %s — configure WithPlanStore so the retained plan can be resolved",
			rec.Fingerprint)
	}
	if rec.Fingerprint == "" {
		return nil, fmt.Errorf("pathlog: recording carries neither a plan nor a fingerprint stamp — nothing to resolve from the plan store")
	}
	plan, err := st.GetPlan(rec.Fingerprint)
	if err != nil {
		return nil, fmt.Errorf("pathlog: resolve recording plan: %w", err)
	}
	if rec.ProgHash != "" && plan.ProgHash != rec.ProgHash {
		return nil, fmt.Errorf("pathlog: recording was taken on program %s but the retained plan %s was built for %s (wrong store or wrong build)",
			rec.ProgHash, rec.Fingerprint, plan.ProgHash)
	}
	resolved := *rec
	resolved.Plan = plan
	return &resolved, nil
}

// Analyze runs the pre-deployment analyses (dynamic concolic exploration and
// static dataflow) over the neutral input space and caches the result for
// the session's lifetime. The context bounds the concolic exploration and is
// re-checked before the static pass, so a cancelled analysis returns without
// starting it.
func (s *Session) Analyze(ctx context.Context) (Inputs, error) {
	// anMu serializes the computation; mu guards only the cache, so a
	// running analysis does not hold the lock the lineage and plan caches
	// take.
	s.anMu.Lock()
	defer s.anMu.Unlock()
	s.mu.Lock()
	if s.inputs != nil {
		in := *s.inputs
		s.mu.Unlock()
		return in, nil
	}
	s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return Inputs{}, err
	}
	spec := s.spec
	if s.cfg.analysisSpec != nil {
		spec = s.cfg.analysisSpec
	}
	ex := concolic.New(s.prog, spec, world.NewRegistry(spec), s.cfg.dyn)
	in := Inputs{Dynamic: ex.Explore(ctx)}
	if err := ctx.Err(); err != nil {
		// The dynamic exploration was cut short; skip the static pass and do
		// not cache the partial result.
		return in, err
	}
	in.Static = static.Analyze(s.prog, s.cfg.static)
	s.mu.Lock()
	s.inputs = &in
	s.mu.Unlock()
	return in, nil
}

// PlanWith builds (and caches) the instrumentation plan for an explicit
// strategy, using the session's cached analysis. Plans are cached by
// strategy name, so a custom Strategy must name its decision uniquely.
func (s *Session) PlanWith(ctx context.Context, strat Strategy) (*Plan, error) {
	in, err := s.Analyze(ctx)
	if err != nil {
		return nil, err
	}
	key := planKey{strategy: strat.Name(), logSyscalls: s.cfg.logSyscalls}
	s.mu.Lock()
	if p, ok := s.plans[key]; ok {
		s.mu.Unlock()
		return p, nil
	}
	s.mu.Unlock()
	// Plan outside the lock: strategies may do real work (cost ranking).
	p, err := strat.Plan(ctx, s.planContext(in))
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.plans[key] = p
	s.mu.Unlock()
	return p, nil
}

// Plan builds the instrumentation plan for the session's configured
// strategy.
func (s *Session) Plan(ctx context.Context) (*Plan, error) {
	return s.PlanWith(ctx, s.cfg.strategy)
}

// planContext assembles the shared strategy-planning context for one
// analysis result. The PlanContext is cached so every plan the session
// builds is priced by the one cost model built from the analysis.
func (s *Session) planContext(in Inputs) *instrument.PlanContext {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pc == nil {
		s.pc = instrument.NewPlanContext(s.prog, in, s.cfg.logSyscalls)
	}
	return s.pc
}

// persistProfile retains the search profile measured under a deployed plan
// generation in the plan store (profiles/<fingerprint>.json; a no-op
// without WithPlanStore). Profiles with no plan identity are skipped —
// there is no generation to file them under.
func (s *Session) persistProfile(p *instrument.SearchProfile) error {
	if p == nil || p.PlanFingerprint == "" || p.ProgHash == "" {
		return nil
	}
	st, err := s.PlanStore()
	if err != nil || st == nil {
		return err
	}
	return st.PutProfile(p)
}

// WorkloadHash returns the session's workload identity: a hash over the
// input spec's stream declarations, kernel parameters and the configured
// user bytes (world.WorkloadHash). Measured store points key on it instead
// of the session's name, so renamed sessions stop fragmenting measured
// history; corpus balance runs reuse the same mechanism with the corpus
// identity as the key.
func (s *Session) WorkloadHash() string {
	return world.WorkloadHash(s.spec, s.cfg.userBytes)
}

// Record performs the user-site half of the workflow: the instrumented
// program runs on the user's bytes (nil selects WithUserBytes) and a crash
// yields a bug report with no input bytes in it. A nil recording with a nil
// error means the run did not crash.
func (s *Session) Record(ctx context.Context, user map[string][]byte) (*Recording, *RecordStats, error) {
	plan, err := s.Plan(ctx)
	if err != nil {
		return nil, nil, err
	}
	return s.RecordWith(ctx, plan, user)
}

// RecordWith is Record under an explicit plan, for callers comparing
// instrumentation methods over one session. With a plan store configured,
// the deployed plan is retained in the store before the run — deployment
// is exactly the moment the developer site must be able to resolve the
// plan later, whatever the recording envelope carries. With WithObserver,
// each run's logged bits land in the pathlog_record_logged_bits histogram
// and its buffer flushes in pathlog_record_flushes_total.
func (s *Session) RecordWith(ctx context.Context, plan *Plan, user map[string][]byte) (*Recording, *RecordStats, error) {
	if user == nil {
		user = s.cfg.userBytes
	}
	if err := s.persistPlan(plan); err != nil {
		return nil, nil, fmt.Errorf("pathlog: retain deployed plan: %w", err)
	}
	rec, stats, err := core.Record(ctx, nil, s.prog, s.spec, user, plan)
	if s.recordObs != nil && err == nil {
		s.recordObs.loggedBits.Observe(float64(stats.TraceBits))
		s.recordObs.flushes.Add(int64(stats.Flushes))
	}
	return rec, stats, err
}

// MeasureOverhead runs the user-site workload repeatedly under a plan and
// returns the average wall time, for instrumentation-overhead measurements;
// no crash is required. Cancelling the context stops between rounds.
func (s *Session) MeasureOverhead(ctx context.Context, plan *Plan, rounds int) (time.Duration, *RecordStats, error) {
	return core.MeasureOverhead(ctx, nil, s.prog, s.spec, s.cfg.userBytes, plan, rounds)
}

// Replay performs the developer-site half of the workflow: it reproduces the
// recorded bug from the partial branch log. The context's cancellation or
// deadline stops the search within one run; WithReplayBudget shapes the
// search.
//
// Replay refuses a recording that does not fit this session: a plan whose
// branch IDs or program hash disagree with the session's program, or a
// recording whose fingerprint stamp disagrees with its plan, returns an
// error instead of silently searching under the wrong plan.
//
// A stamped-only recording (no embedded plan, just the fingerprint of the
// plan it was taken under) is resolved against the session's plan store
// first: the exact retained plan generation matching the stamp is fetched
// by fingerprint, and a stamp matching no retained plan is refused with
// the fingerprint in the error. This needs WithPlanStore.
func (s *Session) Replay(ctx context.Context, rec *Recording) (*ReplayResult, error) {
	rec, err := s.ResolveRecording(rec)
	if err != nil {
		return nil, err
	}
	if err := s.validateRecording(rec); err != nil {
		return nil, err
	}
	eng := replay.New(s.prog, s.spec, world.NewRegistry(s.spec), rec, s.replayOptions())
	return eng.Reproduce(ctx), nil
}

// validateRecording checks a recording against the session's program
// before any search is spent on it.
func (s *Session) validateRecording(rec *Recording) error {
	if rec == nil {
		return fmt.Errorf("pathlog: nil recording")
	}
	return rec.Validate(s.prog)
}

// replayOptions assembles the bounds every replay of the session runs
// under, single reports and corpus members alike: the WithReplayBudget
// bounds, observed by the session's registry.
func (s *Session) replayOptions() ReplayOptions {
	opts := s.cfg.rep
	opts.Obs = s.cfg.obs.Registry()
	return opts
}

// fanOut calls fn(i) for every i in [0, n) on a pool of GOMAXPROCS
// workers, never more than n. The batch jobs it runs — Frontier's plans —
// are independent, so the pool size changes only the wall time.
func fanOut(n int, fn func(i int)) {
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// Reproduce runs the full pipeline once: analyze, plan, record the user run
// (nil selects WithUserBytes), and replay the resulting bug report. A nil
// result with a nil error means the user run did not crash.
func (s *Session) Reproduce(ctx context.Context, user map[string][]byte) (*ReplayResult, *Recording, error) {
	rec, _, err := s.Record(ctx, user)
	if err != nil {
		return nil, nil, err
	}
	if rec == nil {
		return nil, nil, nil // the user run did not crash: nothing to replay
	}
	res, err := s.Replay(ctx, rec)
	if err != nil {
		return nil, rec, err
	}
	return res, rec, nil
}

// Verify checks that an input found by replay really activates the recorded
// bug: it re-runs the program concretely and compares crash sites (§5.3).
func (s *Session) Verify(inputBytes map[string][]byte, crash CrashInfo) bool {
	return core.Verify(nil, s.prog, s.spec, inputBytes, crash)
}

// String renders the session's configuration for logs.
func (s *Session) String() string {
	return fmt.Sprintf("session(%s strategy=%s syscalls=%v)",
		s.cfg.name, s.cfg.strategy.Name(), s.cfg.logSyscalls)
}
