package fleet

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pathlog/internal/apps"
	"pathlog/internal/core"
	"pathlog/internal/corpus"
	"pathlog/internal/instrument"
	"pathlog/internal/obs"
	"pathlog/internal/replay"
	"pathlog/internal/world"
)

// WorkerCore executes shard requests against named scenarios — the engine
// behind cmd/shardworkerd's POST /shard. It caches scenario builds by name
// so the daemon does not rebuild the program and input space per shard;
// the replay engines themselves share nothing and may run concurrently.
type WorkerCore struct {
	// Obs, when set, supplies the registry the worker's shard counters and
	// execution histogram live in (cmd/shardworkerd exposes it on /metrics)
	// and the tracer its worker.shard spans record to. Nil keeps a private
	// registry.
	Obs *obs.Observer

	mu        sync.Mutex
	scenarios map[string]*core.Scenario

	initOnce sync.Once
	cShards  *obs.Counter
	cErrors  *obs.Counter
	hShardMS *obs.Histogram
}

// Register creates the worker's counters and histogram in the observer's
// registry. Execute calls it lazily; daemons call it at startup so a fresh
// worker's /metrics page shows the metric families before the first shard
// ever lands.
func (w *WorkerCore) Register() {
	w.initOnce.Do(func() {
		reg := w.Obs.Registry()
		if reg == nil {
			reg = obs.NewRegistry()
		}
		w.cShards = reg.Counter("pathlog_worker_shards_total")
		w.cErrors = reg.Counter("pathlog_worker_shard_errors_total")
		w.hShardMS = reg.Histogram("pathlog_worker_shard_ms", obs.ExpBuckets(1, 2, 14))
	})
}

// scenario resolves and caches one named scenario.
func (w *WorkerCore) scenario(name string) (*core.Scenario, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if s, ok := w.scenarios[name]; ok {
		return s, nil
	}
	s, err := apps.ScenarioByName(name)
	if err != nil {
		return nil, err
	}
	if w.scenarios == nil {
		w.scenarios = make(map[string]*core.Scenario)
	}
	w.scenarios[name] = s
	return s, nil
}

// Execute runs one shard request to completion: resolve the scenario,
// replay each report in order, return one run per report. Every failure
// becomes a response-level Error (never a panic or a half-filled result
// list), so the parent's transcript names what went wrong on which report.
// Reports arrive only as inline version-2 envelope bodies: the worker never
// opens a path a request names.
func (w *WorkerCore) Execute(ctx context.Context, req corpus.ShardRequest) corpus.ShardResponse {
	w.Register()
	w.cShards.Inc()
	start := time.Now()
	ctx, span := w.Obs.Tracer().StartSpan(ctx, "worker.shard")
	span.SetAttr("shard", req.ShardID)
	defer func() {
		w.hShardMS.Observe(float64(time.Since(start).Milliseconds()))
		span.End()
	}()
	fail := func(format string, args ...any) corpus.ShardResponse {
		w.cErrors.Inc()
		span.SetAttr("outcome", "error")
		return corpus.ShardResponse{
			Version: corpus.ProtocolVersion,
			ShardID: req.ShardID,
			Error:   fmt.Sprintf(format, args...),
		}
	}
	if req.Version != corpus.ProtocolVersion {
		return fail("request speaks protocol %d, this worker speaks %d", req.Version, corpus.ProtocolVersion)
	}
	if len(req.Envelopes) == 0 {
		return fail("request names no reports")
	}
	s, err := w.scenario(req.Scenario)
	if err != nil {
		return fail("%v", err)
	}
	opts := replay.Options{
		MaxRuns:    req.MaxRuns,
		TimeBudget: time.Duration(req.BudgetMS) * time.Millisecond,
		PickFIFO:   req.PickFIFO,
	}
	resp := corpus.ShardResponse{
		Version:  corpus.ProtocolVersion,
		ShardID:  req.ShardID,
		ProgHash: instrument.ProgramHash(s.Prog),
	}
	for i, env := range req.Envelopes {
		// The envelope must embed its plan and fit this worker's program —
		// a wrong-scenario request fails per report, by name.
		rec, err := replay.DecodeRecordingFor(env, s.Prog)
		if err != nil {
			return fail("report inline envelope %d: %v", i, err)
		}
		if rec.Plan == nil {
			return fail("report inline envelope %d: stamped-only envelope carries no plan — the parent resolves stamps before dispatch", i)
		}
		eng := replay.New(s.Prog, s.Spec, world.NewRegistry(), rec, opts)
		res := eng.Reproduce(ctx)
		resp.Results = append(resp.Results, corpus.ReportRun{
			Reproduced: res.Reproduced,
			TimedOut:   res.TimedOut,
			Cancelled:  res.Cancelled,
			Runs:       res.Runs,
			WallMS:     res.Elapsed.Milliseconds(),
			Profile:    res.Profile,
		})
		if err := ctx.Err(); err != nil {
			return fail("cancelled after %d of %d reports: %v", len(resp.Results), len(req.Envelopes), err)
		}
	}
	span.SetAttr("outcome", "ok")
	span.SetAttr("reports", fmt.Sprint(len(req.Envelopes)))
	return resp
}
