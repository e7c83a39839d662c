package corpus_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pathlog/internal/corpus"
	"pathlog/internal/fleet"
	"pathlog/internal/instrument"
	"pathlog/internal/lang"
	"pathlog/internal/replay"
	"pathlog/internal/trace"
	"pathlog/internal/vm"
)

// stubWorkerShard builds a two-report shard whose recordings encode cleanly
// (plan embedded): the stub workers never replay it, but staging and the
// shard ID need real reports.
func stubWorkerShard() []*corpus.Report {
	const progHash = "00112233445566778899aabbccddeeff"
	plan := &instrument.Plan{
		Strategy:     "dynamic",
		Instrumented: map[lang.BranchID]bool{1: true, 4: true},
		ProgHash:     progHash,
	}
	var reports []*corpus.Report
	for i, bits := range []byte{0b101, 0b111} {
		rec := &replay.Recording{
			Plan:        plan,
			Trace:       trace.FromBytes([]byte{bits}, 6),
			Crash:       vm.CrashInfo{Kind: vm.CrashKind(1), Pos: lang.Pos{Unit: "u.mc", Line: 10 * (i + 1), Col: 2}, Code: 7},
			Fingerprint: plan.Fingerprint(),
			ProgHash:    progHash,
		}
		reports = append(reports, &corpus.Report{Rec: rec, Signature: string(rune('a' + i)), Weight: 1})
	}
	return reports
}

// TestSubprocessRunnerErrorIdentity pins the error surface of out-of-process
// shard replay: a worker (here a loopback HTTP stub behind the real
// transport) that writes truncated JSON, balloons its response, refuses the
// shard, or answers for the wrong protocol or shard must fail with the
// shard ID and the worker identity in the message — a fleet transcript has
// to say which worker broke on which slice of the corpus.
func TestSubprocessRunnerErrorIdentity(t *testing.T) {
	reports := stubWorkerShard()
	shardID := corpus.ShardIDFor(reports)

	cases := []struct {
		name    string
		body    string
		maxResp int64
		want    []string
	}{
		{
			name: "truncated stdout JSON",
			body: `{"version":1,"results":[{`,
			want: []string{"wrote a malformed response (25 bytes)"},
		},
		{
			name:    "oversized response",
			body:    strings.Repeat("x", 200),
			maxResp: 64,
			want:    []string{"response exceeds 64 bytes", "refusing oversized response"},
		},
		{
			name: "worker refuses shard",
			body: `{"version":1,"error":"unknown scenario \"nope\""}`,
			want: []string{`refused shard: unknown scenario "nope"`},
		},
		{
			name: "wrong protocol version",
			body: `{"version":9,"results":[{},{}]}`,
			want: []string{"speaks protocol 9, want 1"},
		},
		{
			name: "wrong shard echoed",
			body: `{"version":1,"shard_id":"beef","results":[{},{}]}`,
			want: []string{"echoed shard beef", "response belongs to a different shard"},
		},
		{
			name: "wrong result count",
			body: `{"version":1,"results":[{}]}`,
			want: []string{"returned 1 results for 2 reports"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				w.Write([]byte(tc.body))
			}))
			defer srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			r := fleet.NewRemoteRunner([]string{srv.URL}, "userver-exp3", replay.Options{})
			r.Transport = &fleet.HTTPTransport{MaxResponseBytes: tc.maxResp}
			r.MaxAttempts = 1
			_, err := r.ReplayShard(ctx, reports)
			if err == nil {
				t.Fatal("broken worker produced no error")
			}
			want := append([]string{"fleet: shard " + shardID, "worker " + srv.URL}, tc.want...)
			for _, w := range want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q\n  missing %q", err, w)
				}
			}
		})
	}
}
