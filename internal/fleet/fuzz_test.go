package fleet

import (
	"context"
	"encoding/json"
	"testing"

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
