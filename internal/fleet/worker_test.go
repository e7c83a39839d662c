package fleet

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pathlog/internal/apps"
	"pathlog/internal/concolic"
	"pathlog/internal/core"
	"pathlog/internal/corpus"
	"pathlog/internal/instrument"
	"pathlog/internal/static"
	"pathlog/internal/world"
)

// allBranches is the plan logging every branch location of the scenario,
// with the syscall log on.
func allBranches(tb testing.TB, s *apps.Scenario) *instrument.Plan {
	tb.Helper()
	p, err := instrument.All().Plan(context.Background(), instrument.NewPlanContext(s.Prog, instrument.Inputs{}, true))
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestExecuteNeverOpensRequestedPaths: a request naming a report by file
// path — the form a worker on a shared filesystem once honoured — must be
// refused without the worker touching the path, so an HTTP client cannot
// probe which files exist on a worker host or read their first bytes back
// through a decode error. The same envelope shipped inline replays, so the
// refusal is about the form, not the file.
func TestExecuteNeverOpensRequestedPaths(t *testing.T) {
	ctx := testCtx(t)
	s, err := apps.ScenarioByName("userver-exp3")
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := core.Record(ctx, nil, s.Prog, s.Spec, s.UserBytes, allBranches(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		t.Fatal("userver-exp3 did not crash")
	}
	path := filepath.Join(t.TempDir(), "bug.report")
	if err := rec.Save(path); err != nil {
		t.Fatal(err)
	}
	quoted, err := json.Marshal(path)
	if err != nil {
		t.Fatal(err)
	}

	var core WorkerCore
	var req corpus.ShardRequest
	if err := json.Unmarshal([]byte(`{"version":1,"scenario":"userver-exp3","reports":[`+string(quoted)+`]}`), &req); err != nil {
		t.Fatal(err)
	}
	resp := core.Execute(ctx, req)
	if resp.Error != "request names no reports" {
		t.Fatalf("path-form request: error %q, want %q", resp.Error, "request names no reports")
	}
	if strings.Contains(resp.Error, path) || len(resp.Results) != 0 {
		t.Fatalf("path-form request leaked the path or replayed it: %+v", resp)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	resp = core.Execute(ctx, corpus.ShardRequest{
		Version:   corpus.ProtocolVersion,
		Scenario:  "userver-exp3",
		Envelopes: []json.RawMessage{data},
	})
	if resp.Error != "" || len(resp.Results) != 1 {
		t.Fatalf("inline envelope refused: error %q, %d results", resp.Error, len(resp.Results))
	}

	// A cancelled shard stops after the report in flight and says how far
	// it got.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	resp = core.Execute(cancelled, corpus.ShardRequest{
		Version:   corpus.ProtocolVersion,
		Scenario:  "userver-exp3",
		Envelopes: []json.RawMessage{data, data},
	})
	if want := "cancelled after 1 of 2 reports: context canceled"; resp.Error != want || len(resp.Results) != 0 {
		t.Fatalf("cancelled shard: error %q with %d results, want %q and none", resp.Error, len(resp.Results), want)
	}
}

// TestExecuteIgnoresRetiredWorkersField: a client built before the replay
// search became one serial loop still sends a per-search worker count, and
// one built before the search lost its FIFO pick order may still send
// pick_fifo. The request must replay, and its result must equal the same
// request without the keys — neither changes the search any more.
func TestExecuteIgnoresRetiredWorkersField(t *testing.T) {
	ctx := testCtx(t)
	s, err := apps.ScenarioByName("userver-exp3")
	if err != nil {
		t.Fatal(err)
	}
	an := apps.AnalysisScenarioFor("userver-exp3", s)
	in := instrument.Inputs{
		Dynamic: concolic.New(an.Prog, an.Spec, world.NewRegistry(an.Spec), concolic.Options{MaxRuns: 6}).Explore(ctx),
		Static:  static.Analyze(s.Prog, static.Options{LibAsSymbolic: true}),
	}
	plan, err := instrument.StrategyForMethod(instrument.MethodDynamicStatic).Plan(ctx, instrument.NewPlanContext(s.Prog, in, true))
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := core.Record(ctx, nil, s.Prog, s.Spec, s.UserBytes, plan)
	if err != nil || rec == nil {
		t.Fatalf("record: rec=%v err=%v", rec, err)
	}
	// Without the syscall log the search is model-mode and branching, the
	// case where a worker count used to change the run count.
	bare := *rec
	bare.SysLog = nil
	env, err := bare.Encode()
	if err != nil {
		t.Fatal(err)
	}
	current, err := json.Marshal(corpus.ShardRequest{
		Version:   corpus.ProtocolVersion,
		Scenario:  "userver-exp3",
		ShardID:   "s1",
		Envelopes: []json.RawMessage{env},
		MaxRuns:   2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	old := []byte(`{"workers":4,"pick_fifo":true,` + string(current[1:]))

	var w WorkerCore
	execute := func(body []byte) corpus.ShardResponse {
		var req corpus.ShardRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		resp := w.Execute(ctx, req)
		if resp.Error != "" || len(resp.Results) != 1 || !resp.Results[0].Reproduced {
			t.Fatalf("request %.60s… did not replay: %+v", body, resp)
		}
		run := &resp.Results[0]
		run.WallMS = 0
		for _, bc := range run.Profile.Branches {
			bc.SolverTime = 0
		}
		return resp
	}
	want, got := execute(current), execute(old)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("old-client request replayed differently:\n got  %+v\n want %+v", got.Results[0], want.Results[0])
	}
}
