package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"pathlog/internal/apps"
	"pathlog/internal/core"
	"pathlog/internal/corpus"
)

// FuzzShardResponse feeds arbitrary bytes to the RemoteRunner as one
// worker's reply to a two-report shard, with a single attempt. The runner
// must never panic, and it must accept the reply exactly when it decodes
// as a ShardResponse that speaks ProtocolVersion, echoes an empty or
// matching shard ID, carries no Error and holds one result per report.
// The seed corpus is committed under testdata/fuzz.
func FuzzShardResponse(f *testing.F) {
	for _, seed := range []string{
		`{"version":1,"results":[{},{}]}`,
		`{"version":1,"shard_id":"beef","results":[{},{}]}`,
		`{"version":9,"results":[{},{}]}`,
		`{"version":1,"error":"unknown scenario","results":[{},{}]}`,
		`{"version":1,"resu`,
		``,
	} {
		f.Add([]byte(seed))
	}
	shard := fakeShard()
	shardID := corpus.ShardIDFor(shard)
	f.Fuzz(func(t *testing.T, reply []byte) {
		tr := (&fakeTransport{}).worker("w1", &fakeWorker{fallback: rawReply(string(reply))})
		r := newRunner(tr, "w1")
		r.MaxAttempts = 1
		results, err := r.ReplayShard(context.Background(), shard)

		var resp corpus.ShardResponse
		valid := json.Unmarshal(reply, &resp) == nil &&
			resp.Version == corpus.ProtocolVersion &&
			(resp.ShardID == "" || resp.ShardID == shardID) &&
			resp.Error == "" &&
			len(resp.Results) == len(shard)
		switch {
		case valid && err != nil:
			t.Fatalf("valid reply %q refused: %v", reply, err)
		case !valid && err == nil:
			t.Fatalf("invalid reply %q accepted", reply)
		case err == nil && len(results) != len(shard):
			t.Fatalf("accepted reply yields %d results for %d reports", len(results), len(shard))
		}
	})
}

// FuzzShardRequest feeds arbitrary bytes through the decode
// cmd/shardworkerd applies to a POST /shard body, then executes every
// accepted request under a short deadline. Execute must never panic, must
// echo the request's shard ID, and must answer with either an Error or one
// result per envelope; re-encoding an accepted request and decoding it
// again must give the same request. The seeds are a valid uServer request
// and corruptions of it.
func FuzzShardRequest(f *testing.F) {
	ctx := context.Background()
	s, err := apps.ScenarioByName("userver-exp3")
	if err != nil {
		f.Fatal(err)
	}
	rec, _, err := core.Record(ctx, nil, s.Prog, s.Spec, s.UserBytes, allBranches(f, s))
	if err != nil || rec == nil {
		f.Fatalf("record: rec=%v err=%v", rec, err)
	}
	env, err := rec.Encode()
	if err != nil {
		f.Fatal(err)
	}
	req := corpus.ShardRequest{
		Version:   corpus.ProtocolVersion,
		Scenario:  "userver-exp3",
		ShardID:   "beef",
		Envelopes: []json.RawMessage{env},
		MaxRuns:   50,
		BudgetMS:  200,
	}
	if resp := new(WorkerCore).Execute(ctx, req); resp.Error != "" || len(resp.Results) != 1 {
		f.Fatalf("valid seed refused: error %q, %d results", resp.Error, len(resp.Results))
	}
	valid, err := json.Marshal(req)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	for _, r := range [][2]string{
		{`"version":1`, `"version":2`},
		{`"scenario":"userver-exp3"`, `"scenario":"no-such-app"`},
		{`"scenario":"userver-exp3"`, `"scenario":"diff-exp1"`},
		{`"shard_id":"beef"`, `"shard_id":"é\ud800"`},
		{`"max_runs":50`, `"max_runs":-1`},
		{`"budget_ms":200`, `"budget_ms":9223372036854775807`},
		{`"envelopes":[`, `"envelopes":[{},`},
		{`"envelopes":[`, `"reports":["/etc/passwd"],"envelopes":[`},
	} {
		f.Add(bytes.Replace(valid, []byte(r[0]), []byte(r[1]), 1))
	}
	for _, seed := range []string{
		`{"version":1,"scenario":"userver-exp3"}`,
		`{"version":1,"scenario":"userver-exp3","envelopes":[null,"x",7]}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}

	// One worker serves every input, as one daemon serves every request.
	var w WorkerCore
	f.Fuzz(func(t *testing.T, body []byte) {
		var req corpus.ShardRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return // the daemon answers 400 without executing
		}

		encoded, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not encode: %v", err)
		}
		var again corpus.ShardRequest
		if err := json.Unmarshal(encoded, &again); err != nil {
			t.Fatalf("re-encoded request does not decode: %v\n%s", err, encoded)
		}
		if !sameRequest(req, again) {
			t.Fatalf("decode → encode → decode changed the request:\n%+v\n%+v", req, again)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		resp := w.Execute(ctx, req)
		if resp.Version != corpus.ProtocolVersion {
			t.Fatalf("response speaks protocol %d", resp.Version)
		}
		if resp.ShardID != req.ShardID {
			t.Fatalf("shard ID %q echoed as %q", req.ShardID, resp.ShardID)
		}
		switch {
		case resp.Error != "" && len(resp.Results) != 0:
			t.Fatalf("error response %q carries %d results", resp.Error, len(resp.Results))
		case resp.Error == "" && len(resp.Results) != len(req.Envelopes):
			t.Fatalf("%d results for %d envelopes", len(resp.Results), len(req.Envelopes))
		}
	})
}

// sameRequest compares two shard requests field by field, and their
// envelopes as JSON values: encoding compacts and escapes a raw envelope,
// so its bytes may change while its value may not.
func sameRequest(a, b corpus.ShardRequest) bool {
	if a.Version != b.Version || a.Scenario != b.Scenario || a.ShardID != b.ShardID ||
		a.MaxRuns != b.MaxRuns || a.BudgetMS != b.BudgetMS || len(a.Envelopes) != len(b.Envelopes) {
		return false
	}
	for i := range a.Envelopes {
		var va, vb any
		if json.Unmarshal(a.Envelopes[i], &va) != nil || json.Unmarshal(b.Envelopes[i], &vb) != nil ||
			!reflect.DeepEqual(va, vb) {
			return false
		}
	}
	return true
}
