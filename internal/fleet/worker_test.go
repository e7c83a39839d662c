package fleet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathlog/internal/apps"
	"pathlog/internal/corpus"
	"pathlog/internal/instrument"
)

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
	plan := instrument.BuildPlan(s.Prog, instrument.MethodAll, instrument.Inputs{}, true)
	rec, _, err := s.RecordContext(ctx, plan)
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
}
