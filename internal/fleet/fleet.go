// Package fleet fans corpus replay shards out over HTTP to a pool of
// shard worker daemons (cmd/shardworkerd) — the one out-of-process shard
// transport; a loopback daemon covers the local case. The RemoteRunner
// implements corpus.Runner over the JSON ShardRequest/ShardResponse
// protocol with the recording envelopes inline, adding what a network
// demands: per-worker health probing and EWMA latency accounting,
// work-stealing duplicate dispatch of slow shards (first valid response
// wins, the loser is cancelled), and retry with capped exponential backoff
// on worker death or malformed responses. Distribution moves bytes, not
// trust: every response still flows through the verifying corpus.Merger,
// which refuses foreign and stale profiles by name and collapses the
// duplicate shard deliveries stealing can produce into exactly one merge.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"pathlog/internal/corpus"
	"pathlog/internal/obs"
	"pathlog/internal/replay"
)

// Defaults for the RemoteRunner's failure-handling knobs.
const (
	// DefaultMaxAttempts is how many dispatch waves a shard gets before the
	// runner gives up (each wave may include a stolen duplicate).
	DefaultMaxAttempts = 4
	// DefaultBackoffBase and DefaultBackoffCap bound the exponential
	// backoff between waves.
	DefaultBackoffBase = 50 * time.Millisecond
	DefaultBackoffCap  = 2 * time.Second
	// DefaultStealFactor scales a worker's EWMA latency into the steal
	// deadline: a shard outstanding for longer than factor×EWMA is
	// duplicated onto a second worker.
	DefaultStealFactor = 3.0
	// DefaultProbeTimeout bounds one /healthz probe.
	DefaultProbeTimeout = 2 * time.Second
	// ewmaAlpha weighs the newest latency observation.
	ewmaAlpha = 0.3
)

// Metrics is a point-in-time snapshot of a RemoteRunner's counters — the
// numbers the chaos tests assert nonzero.
type Metrics struct {
	// Dispatched counts shard POSTs sent (including stolen duplicates).
	Dispatched int64 `json:"dispatched"`
	// Retries counts requeued waves after a failed dispatch.
	Retries int64 `json:"retries"`
	// Steals counts duplicate dispatches of slow shards; StolenWins counts
	// the duplicates that answered first.
	Steals     int64 `json:"steals"`
	StolenWins int64 `json:"stolen_wins"`
	// WorkerFailures counts transport-level dispatch failures (connection
	// refused, timeout, 5xx, hangup).
	WorkerFailures int64 `json:"worker_failures"`
	// Malformed counts undecodable or wrong-shaped response bodies;
	// Refused counts response-level refusals (protocol or shard mismatch,
	// worker-reported errors).
	Malformed int64 `json:"malformed"`
	Refused   int64 `json:"refused"`
	// ProbeFailures counts /healthz probes that found a worker dead.
	ProbeFailures int64 `json:"probe_failures"`
}

// WorkerStatus is one worker's health snapshot.
type WorkerStatus struct {
	URL        string  `json:"url"`
	Up         bool    `json:"up"`
	EWMAMillis float64 `json:"ewma_ms"`
	Inflight   int     `json:"inflight"`
	Dispatches int64   `json:"dispatches"`
	Failures   int64   `json:"failures"`
}

// Event is one journal entry of the runner's failure handling — the
// shared obs schema, so the runner's journal, the harness artifacts and
// the span stream all speak one format. Kinds: dispatch, response,
// failure, retry, steal, steal_win, worker_down, worker_up, probe_failed.
// Events emitted under an active span carry its trace/span IDs.
type Event = obs.Event

// workerState is the runner's per-worker accounting.
type workerState struct {
	url string

	mu       sync.Mutex
	ewmaMS   float64
	inflight int
	down     bool

	dispatches atomic.Int64
	failures   atomic.Int64
}

func (w *workerState) begin() {
	w.mu.Lock()
	w.inflight++
	w.mu.Unlock()
	w.dispatches.Add(1)
}

func (w *workerState) end(elapsed time.Duration, ok bool) {
	w.mu.Lock()
	w.inflight--
	if ok {
		ms := float64(elapsed.Milliseconds())
		if w.ewmaMS == 0 {
			w.ewmaMS = ms
		} else {
			w.ewmaMS = ewmaAlpha*ms + (1-ewmaAlpha)*w.ewmaMS
		}
	}
	w.mu.Unlock()
	if !ok {
		w.failures.Add(1)
	}
}

func (w *workerState) markDown() {
	w.mu.Lock()
	w.down = true
	w.mu.Unlock()
}

func (w *workerState) markUp() {
	w.mu.Lock()
	w.down = false
	w.mu.Unlock()
}

func (w *workerState) isUp() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return !w.down
}

func (w *workerState) load() (inflight int, ewmaMS float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.inflight, w.ewmaMS
}

// RemoteRunner implements corpus.Runner over a pool of HTTP shard worker
// daemons. Shards ship with their recording envelopes inline (version-2,
// plan embedded), so workers need neither a shared filesystem nor a plan
// store. The zero knobs all default sensibly; construct with
// NewRemoteRunner for the common case.
type RemoteRunner struct {
	// Workers is the pool, as host:port or http URLs.
	Workers []string
	// Scenario names the program and input space (apps.ScenarioByName).
	Scenario string
	// Opts bound each report's replay inside the worker.
	Opts replay.Options
	// Transport carries requests (nil = HTTPTransport). Fault-injection
	// tests replace it.
	Transport Transport
	// MaxAttempts, BackoffBase, BackoffCap bound the retry loop
	// (0 = the Default* constants).
	MaxAttempts int
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// StealAfter is the floor before a slow shard is duplicated onto a
	// second worker; the effective deadline is
	// max(StealAfter, StealFactor×EWMA). With StealAfter zero and no
	// latency history yet, stealing waits for history.
	StealAfter time.Duration
	// StealFactor scales EWMA latency into the steal deadline
	// (0 = DefaultStealFactor).
	StealFactor float64
	// RequestTimeout bounds one dispatch (0 = bounded by the caller's
	// context only).
	RequestTimeout time.Duration
	// ProbeTimeout bounds one /healthz probe (0 = DefaultProbeTimeout).
	ProbeTimeout time.Duration
	// OnEvent, when set, receives a Event per dispatch/failure/steal; it
	// may be called from concurrent shard goroutines and must be
	// goroutine-safe.
	OnEvent func(Event)
	// Events, when set, journals every event as one JSONL line — the same
	// stream OnEvent observes in-process, so the harness artifact and any
	// callback see identical records.
	Events *obs.EventSink
	// Obs, when set, supplies the registry the runner's counters live in
	// (exposed by /metrics alongside the intake's) and the tracer its
	// shard/dispatch spans record to. Nil keeps a private registry so
	// Metrics() works standalone.
	Obs *obs.Observer

	initOnce sync.Once
	states   []*workerState

	dispatched     *obs.Counter
	retries        *obs.Counter
	steals         *obs.Counter
	stolenWins     *obs.Counter
	workerFailures *obs.Counter
	malformed      *obs.Counter
	refused        *obs.Counter
	probeFailures  *obs.Counter
	dispatchMS     *obs.Histogram
}

// NewRemoteRunner builds a RemoteRunner over the given worker pool with
// default transport and failure handling.
func NewRemoteRunner(workers []string, scenario string, opts replay.Options) *RemoteRunner {
	return &RemoteRunner{Workers: workers, Scenario: scenario, Opts: opts}
}

func (r *RemoteRunner) init() {
	r.initOnce.Do(func() {
		for _, w := range r.Workers {
			r.states = append(r.states, &workerState{url: WorkerURL(w)})
		}
		reg := r.Obs.Registry()
		if reg == nil {
			reg = obs.NewRegistry()
		}
		r.dispatched = reg.Counter("pathlog_fleet_dispatched_total")
		r.retries = reg.Counter("pathlog_fleet_retries_total")
		r.steals = reg.Counter("pathlog_fleet_steals_total")
		r.stolenWins = reg.Counter("pathlog_fleet_stolen_wins_total")
		r.workerFailures = reg.Counter("pathlog_fleet_worker_failures_total")
		r.malformed = reg.Counter("pathlog_fleet_malformed_total")
		r.refused = reg.Counter("pathlog_fleet_refused_total")
		r.probeFailures = reg.Counter("pathlog_fleet_probe_failures_total")
		r.dispatchMS = reg.Histogram("pathlog_fleet_dispatch_ms", obs.ExpBuckets(1, 2, 14))
	})
}

func (r *RemoteRunner) transport() Transport {
	if r.Transport != nil {
		return r.Transport
	}
	return &HTTPTransport{}
}

func (r *RemoteRunner) maxAttempts() int {
	if r.MaxAttempts > 0 {
		return r.MaxAttempts
	}
	return DefaultMaxAttempts
}

// event stamps e with the active span's identity (when ctx carries one),
// journals it to the Events sink, and hands it to OnEvent.
func (r *RemoteRunner) event(ctx context.Context, e Event) {
	if s := obs.SpanFromContext(ctx); s != nil {
		sc := s.Context()
		e.Trace, e.Span = sc.TraceID, sc.SpanID
	}
	r.Events.Emit(e)
	if r.OnEvent != nil {
		r.OnEvent(e)
	}
}

// Metrics snapshots the runner's counters.
func (r *RemoteRunner) Metrics() Metrics {
	r.init()
	return Metrics{
		Dispatched:     r.dispatched.Value(),
		Retries:        r.retries.Value(),
		Steals:         r.steals.Value(),
		StolenWins:     r.stolenWins.Value(),
		WorkerFailures: r.workerFailures.Value(),
		Malformed:      r.malformed.Value(),
		Refused:        r.refused.Value(),
		ProbeFailures:  r.probeFailures.Value(),
	}
}

// WorkerStatuses snapshots per-worker health, in pool order.
func (r *RemoteRunner) WorkerStatuses() []WorkerStatus {
	r.init()
	out := make([]WorkerStatus, len(r.states))
	for i, ws := range r.states {
		inflight, ewma := ws.load()
		out[i] = WorkerStatus{
			URL:        ws.url,
			Up:         ws.isUp(),
			EWMAMillis: ewma,
			Inflight:   inflight,
			Dispatches: ws.dispatches.Load(),
			Failures:   ws.failures.Load(),
		}
	}
	return out
}

// WaitHealthy polls every worker's /healthz until all answer or the
// context expires — the deadline-bounded way to await a fleet coming up
// (tests and the harness use this instead of sleeping).
func (r *RemoteRunner) WaitHealthy(ctx context.Context) error {
	r.init()
	if len(r.states) == 0 {
		return fmt.Errorf("fleet: no workers configured")
	}
	tr := r.transport()
	for {
		var lastErr error
		healthy := 0
		for _, ws := range r.states {
			pctx, cancel := context.WithTimeout(ctx, r.probeTimeout())
			err := tr.Healthz(pctx, ws.url)
			cancel()
			if err != nil {
				lastErr = fmt.Errorf("fleet: worker %s: %w", ws.url, err)
				continue
			}
			ws.markUp()
			healthy++
		}
		if healthy == len(r.states) {
			return nil
		}
		select {
		case <-ctx.Done():
			if lastErr != nil {
				return fmt.Errorf("%w (last probe: %v)", ctx.Err(), lastErr)
			}
			return ctx.Err()
		case <-time.After(25 * time.Millisecond):
		}
	}
}

func (r *RemoteRunner) probeTimeout() time.Duration {
	if r.ProbeTimeout > 0 {
		return r.ProbeTimeout
	}
	return DefaultProbeTimeout
}

// pickWorker chooses the healthy worker with the least load (inflight
// count, then EWMA latency), excluding one worker if an alternative
// exists — the steal path must land on a different host than the primary.
func (r *RemoteRunner) pickWorker(exclude *workerState) *workerState {
	var best *workerState
	bestInflight := 0
	bestEWMA := math.MaxFloat64
	for _, ws := range r.states {
		if ws == exclude || !ws.isUp() {
			continue
		}
		inflight, ewma := ws.load()
		if best == nil || inflight < bestInflight || (inflight == bestInflight && ewma < bestEWMA) {
			best, bestInflight, bestEWMA = ws, inflight, ewma
		}
	}
	if best == nil && exclude != nil && exclude.isUp() {
		return exclude
	}
	return best
}

// anyUp reports whether at least one worker is believed healthy.
func (r *RemoteRunner) anyUp() bool {
	for _, ws := range r.states {
		if ws.isUp() {
			return true
		}
	}
	return false
}

// probeAll probes every down worker once and revives the responders.
func (r *RemoteRunner) probeAll(ctx context.Context) {
	tr := r.transport()
	for _, ws := range r.states {
		if ws.isUp() {
			continue
		}
		pctx, cancel := context.WithTimeout(ctx, r.probeTimeout())
		err := tr.Healthz(pctx, ws.url)
		cancel()
		if err != nil {
			r.probeFailures.Inc()
			r.event(ctx, Event{Kind: "probe_failed", Worker: ws.url, Err: err.Error()})
			continue
		}
		ws.markUp()
		r.event(ctx, Event{Kind: "worker_up", Worker: ws.url})
	}
}

// stealDelay computes the duplicate-dispatch deadline for a shard running
// on the given worker: max(StealAfter, StealFactor×EWMA). Zero means no
// stealing this wave (no floor configured and no latency history yet).
func (r *RemoteRunner) stealDelay(ws *workerState) time.Duration {
	factor := r.StealFactor
	if factor <= 0 {
		factor = DefaultStealFactor
	}
	_, ewma := ws.load()
	d := time.Duration(factor * ewma * float64(time.Millisecond))
	if r.StealAfter > d {
		d = r.StealAfter
	}
	return d
}

// encodeRequest stages the shard as one wire request with the recording
// envelopes inline.
func (r *RemoteRunner) encodeRequest(shardID string, reports []*corpus.Report) ([]byte, error) {
	req := corpus.ShardRequest{
		Version:  corpus.ProtocolVersion,
		Scenario: r.Scenario,
		ShardID:  shardID,
		MaxRuns:  r.Opts.MaxRuns,
		BudgetMS: r.Opts.TimeBudget.Milliseconds(),
		PickFIFO: r.Opts.PickFIFO,
	}
	for _, rep := range reports {
		if rep.Rec == nil || rep.Rec.Plan == nil {
			return nil, fmt.Errorf("fleet: report %s carries no plan — resolve the corpus against a plan store before replaying", rep.Signature)
		}
		data, err := rep.Rec.Encode()
		if err != nil {
			return nil, fmt.Errorf("fleet: stage report %s for shard %s: %w", rep.Signature, shardID, err)
		}
		req.Envelopes = append(req.Envelopes, json.RawMessage(data))
	}
	return json.Marshal(req)
}

// ReplayShard implements corpus.Runner: dispatch the shard to the
// least-loaded healthy worker, duplicate it onto a second worker if the
// first is slow (first valid response wins, the loser's request context is
// cancelled), and requeue with capped exponential backoff when a wave
// fails. When every worker looks dead the pool is re-probed before giving
// up, so a single flaky dispatch cannot strand a shard while live workers
// exist.
func (r *RemoteRunner) ReplayShard(ctx context.Context, reports []*corpus.Report) ([]corpus.ReportRun, error) {
	r.init()
	if len(r.states) == 0 {
		return nil, fmt.Errorf("fleet: no workers configured")
	}
	shardID := corpus.ShardIDFor(reports)
	ctx, span := r.Obs.Tracer().StartSpan(ctx, "fleet.shard")
	span.SetAttr("shard", shardID)
	defer span.End()
	body, err := r.encodeRequest(shardID, reports)
	if err != nil {
		span.SetAttr("outcome", "encode-error")
		return nil, err
	}
	maxAttempts := r.maxAttempts()
	backoff := r.BackoffBase
	if backoff <= 0 {
		backoff = DefaultBackoffBase
	}
	maxBackoff := r.BackoffCap
	if maxBackoff <= 0 {
		maxBackoff = DefaultBackoffCap
	}
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if attempt > 1 {
			r.retries.Inc()
			r.event(ctx, Event{Kind: "retry", Shard: shardID, Attempt: attempt, Err: errString(lastErr)})
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(backoff):
			}
			backoff = min(backoff*2, maxBackoff)
		}
		if !r.anyUp() {
			r.probeAll(ctx)
			if !r.anyUp() {
				if lastErr == nil {
					lastErr = fmt.Errorf("no worker answered a health probe")
				}
				return nil, fmt.Errorf("fleet: shard %s: all %d workers down after %d attempts: %w",
					shardID, len(r.states), attempt, lastErr)
			}
		}
		results, err := r.dispatchWave(ctx, shardID, body, len(reports), attempt)
		if err == nil {
			span.SetAttr("attempts", fmt.Sprint(attempt))
			return results, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		lastErr = err
	}
	return nil, fmt.Errorf("fleet: shard %s: gave up after %d attempts: %w", shardID, maxAttempts, lastErr)
}

// waveOutcome is one dispatch's result inside a wave.
type waveOutcome struct {
	results []corpus.ReportRun
	err     error
	stolen  bool
}

// dispatchWave runs one wave: a primary dispatch, plus a stolen duplicate
// on a second worker if the primary outlives the steal deadline. The first
// valid response wins and cancels the other request.
func (r *RemoteRunner) dispatchWave(ctx context.Context, shardID string, body []byte, nReports, attempt int) ([]corpus.ReportRun, error) {
	primary := r.pickWorker(nil)
	if primary == nil {
		return nil, fmt.Errorf("no healthy workers")
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan waveOutcome, 2)
	launch := func(ws *workerState, stolen bool) {
		go func() {
			res, err := r.dispatchOnce(wctx, ws, shardID, body, nReports, attempt)
			ch <- waveOutcome{results: res, err: err, stolen: stolen}
		}()
	}
	launch(primary, false)
	inflight := 1
	var stealC <-chan time.Time
	if d := r.stealDelay(primary); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		stealC = t.C
	}
	var lastErr error
	for inflight > 0 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-stealC:
			stealC = nil
			if thief := r.pickWorker(primary); thief != nil && thief != primary {
				r.steals.Inc()
				r.event(ctx, Event{Kind: "steal", Worker: thief.url, Shard: shardID, Attempt: attempt})
				launch(thief, true)
				inflight++
			}
		case out := <-ch:
			inflight--
			if out.err == nil {
				if out.stolen {
					r.stolenWins.Inc()
					r.event(ctx, Event{Kind: "steal_win", Shard: shardID, Attempt: attempt})
				}
				// The loser's dispatch dies with wctx; its outcome lands in
				// the buffered channel and is dropped with the wave.
				return out.results, nil
			}
			lastErr = out.err
		}
	}
	return nil, lastErr
}

// dispatchOnce POSTs the shard to one worker and validates the response.
// Transport failures mark the worker down (a later probe revives it);
// malformed or refusing responses fail the dispatch without poisoning
// other shards on the same worker. A dispatch cancelled because the wave
// already has a winner reports the cancellation without any failure
// accounting.
func (r *RemoteRunner) dispatchOnce(ctx context.Context, ws *workerState, shardID string, body []byte, nReports, attempt int) ([]corpus.ReportRun, error) {
	ctx, span := r.Obs.Tracer().StartSpan(ctx, "fleet.dispatch")
	span.SetAttr("worker", ws.url)
	span.SetAttr("shard", shardID)
	defer span.End()
	r.dispatched.Inc()
	r.event(ctx, Event{Kind: "dispatch", Worker: ws.url, Shard: shardID, Attempt: attempt})
	dctx := ctx
	if r.RequestTimeout > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, r.RequestTimeout)
		defer cancel()
	}
	ws.begin()
	start := time.Now()
	data, err := r.transport().PostShard(dctx, ws.url, body)
	elapsed := time.Since(start)
	ws.end(elapsed, err == nil)
	r.dispatchMS.Observe(float64(elapsed.Milliseconds()))
	if err != nil {
		if ctx.Err() != nil {
			// Lost the race (or the caller gave up): not the worker's fault.
			span.SetAttr("outcome", "cancelled")
			return nil, ctx.Err()
		}
		r.workerFailures.Inc()
		ws.markDown()
		span.SetAttr("outcome", "worker-down")
		r.event(ctx, Event{Kind: "worker_down", Worker: ws.url, Shard: shardID, Attempt: attempt, Err: err.Error(), MS: float64(elapsed.Milliseconds())})
		return nil, fmt.Errorf("worker %s: %w", ws.url, err)
	}
	var resp corpus.ShardResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		r.malformed.Inc()
		span.SetAttr("outcome", "malformed")
		r.event(ctx, Event{Kind: "failure", Worker: ws.url, Shard: shardID, Attempt: attempt, Err: "malformed response: " + err.Error()})
		return nil, fmt.Errorf("worker %s wrote a malformed response (%d bytes): %w", ws.url, len(data), err)
	}
	if resp.Error != "" {
		r.refused.Inc()
		span.SetAttr("outcome", "refused")
		r.event(ctx, Event{Kind: "failure", Worker: ws.url, Shard: shardID, Attempt: attempt, Err: "refused: " + resp.Error})
		return nil, fmt.Errorf("worker %s refused shard: %s", ws.url, resp.Error)
	}
	if resp.Version != corpus.ProtocolVersion {
		r.refused.Inc()
		span.SetAttr("outcome", "refused")
		return nil, fmt.Errorf("worker %s speaks protocol %d, want %d", ws.url, resp.Version, corpus.ProtocolVersion)
	}
	if resp.ShardID != "" && resp.ShardID != shardID {
		r.refused.Inc()
		span.SetAttr("outcome", "refused")
		return nil, fmt.Errorf("worker %s echoed shard %s, want %s — response belongs to a different shard", ws.url, resp.ShardID, shardID)
	}
	if len(resp.Results) != nReports {
		r.malformed.Inc()
		span.SetAttr("outcome", "malformed")
		return nil, fmt.Errorf("worker %s returned %d results for %d reports", ws.url, len(resp.Results), nReports)
	}
	span.SetAttr("outcome", "ok")
	r.event(ctx, Event{Kind: "response", Worker: ws.url, Shard: shardID, Attempt: attempt, MS: float64(elapsed.Milliseconds())})
	return resp.Results, nil
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
