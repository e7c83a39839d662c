package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"pathlog/internal/corpus"
	"pathlog/internal/instrument"
	"pathlog/internal/lang"
	"pathlog/internal/obs"
	"pathlog/internal/replay"
	"pathlog/internal/trace"
	"pathlog/internal/vm"
)

const fakeProgHash = "00112233445566778899aabbccddeeff"

// fakeReport builds a report whose recording encodes cleanly (plan
// embedded); the fake transport never replays it.
func fakeReport(sig string, bits byte) *corpus.Report {
	plan := &instrument.Plan{
		Strategy:     "dynamic",
		Instrumented: map[lang.BranchID]bool{1: true, 4: true},
		ProgHash:     fakeProgHash,
	}
	rec := &replay.Recording{
		Plan:        plan,
		Trace:       trace.FromBytes([]byte{bits}, 6),
		Crash:       vm.CrashInfo{Kind: vm.CrashKind(1), Pos: lang.Pos{Unit: "u.mc", Line: 10, Col: 2}, Code: 7},
		Fingerprint: plan.Fingerprint(),
		ProgHash:    fakeProgHash,
	}
	return &corpus.Report{Rec: rec, Signature: sig, Weight: 1}
}

func fakeShard() []*corpus.Report {
	return []*corpus.Report{fakeReport("sig-a", 0b101), fakeReport("sig-b", 0b111)}
}

// behavior scripts one PostShard call.
type behavior func(ctx context.Context, body []byte) ([]byte, error)

// okReply answers like a healthy worker: echo the shard ID, one empty run
// per report.
func okReply(_ context.Context, body []byte) ([]byte, error) {
	var req corpus.ShardRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	resp := corpus.ShardResponse{
		Version: corpus.ProtocolVersion,
		ShardID: req.ShardID,
		Results: make([]corpus.ReportRun, len(req.Envelopes)),
	}
	return json.Marshal(resp)
}

func errReply(err error) behavior {
	return func(context.Context, []byte) ([]byte, error) { return nil, err }
}

func rawReply(s string) behavior {
	return func(context.Context, []byte) ([]byte, error) { return []byte(s), nil }
}

func refuseReply(msg string) behavior {
	return func(_ context.Context, body []byte) ([]byte, error) {
		var req corpus.ShardRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return json.Marshal(corpus.ShardResponse{
			Version: corpus.ProtocolVersion, ShardID: req.ShardID, Error: msg,
		})
	}
}

// hangReply blocks until the request context is cancelled — a worker that
// accepted the connection and never answers.
func hangReply(ctx context.Context, _ []byte) ([]byte, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// fakeWorker is one worker's script: consume the queue, then repeat
// fallback (nil fallback = healthy okReply).
type fakeWorker struct {
	queue    []behavior
	fallback behavior
}

// fakeTransport is the fault-injection Transport double.
type fakeTransport struct {
	mu      sync.Mutex
	workers map[string]*fakeWorker
	health  map[string]error
}

func (f *fakeTransport) worker(name string, w *fakeWorker) *fakeTransport {
	if f.workers == nil {
		f.workers = make(map[string]*fakeWorker)
	}
	f.workers[WorkerURL(name)] = w
	return f
}

func (f *fakeTransport) sick(name string, err error) *fakeTransport {
	if f.health == nil {
		f.health = make(map[string]error)
	}
	f.health[WorkerURL(name)] = err
	return f
}

func (f *fakeTransport) PostShard(ctx context.Context, worker string, body []byte) ([]byte, error) {
	f.mu.Lock()
	w := f.workers[worker]
	var b behavior
	if w != nil {
		if len(w.queue) > 0 {
			b = w.queue[0]
			w.queue = w.queue[1:]
		} else {
			b = w.fallback
		}
	}
	f.mu.Unlock()
	if b == nil {
		b = okReply
	}
	return b(ctx, body)
}

func (f *fakeTransport) Healthz(_ context.Context, worker string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.health[worker]
}

// testCtx bounds every fault-injection test with an explicit deadline.
func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func newRunner(tr Transport, workers ...string) *RemoteRunner {
	r := NewRemoteRunner(workers, "userver-exp3", replay.Options{})
	r.Transport = tr
	r.BackoffBase = time.Millisecond
	r.BackoffCap = 5 * time.Millisecond
	return r
}

// TestRetryAfterWorkerDeath: a dead primary (connection refused) marks the
// worker down, the shard requeues with backoff, and the second worker
// serves it.
func TestRetryAfterWorkerDeath(t *testing.T) {
	tr := (&fakeTransport{}).worker("w1", &fakeWorker{fallback: errReply(errConnRefused)})
	r := newRunner(tr, "w1", "w2")
	results, err := r.ReplayShard(testCtx(t), fakeShard())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	m := r.Metrics()
	if m.WorkerFailures != 1 || m.Retries != 1 {
		t.Fatalf("WorkerFailures=%d Retries=%d, want 1/1", m.WorkerFailures, m.Retries)
	}
	for _, st := range r.WorkerStatuses() {
		if st.URL == WorkerURL("w1") && st.Up {
			t.Fatal("dead worker still marked up")
		}
	}
}

var errConnRefused = &StatusError{Worker: "w1", Code: 0, Body: "connect: connection refused"}

// TestRetryAfterTornJSON: a torn response body is counted malformed and
// the shard requeues (the worker is not marked down — one bad body does
// not poison its other shards).
func TestRetryAfterTornJSON(t *testing.T) {
	tr := (&fakeTransport{}).worker("w1", &fakeWorker{queue: []behavior{rawReply(`{"version":1,"resu`)}})
	r := newRunner(tr, "w1")
	if _, err := r.ReplayShard(testCtx(t), fakeShard()); err != nil {
		t.Fatal(err)
	}
	m := r.Metrics()
	if m.Malformed != 1 || m.Retries != 1 {
		t.Fatalf("Malformed=%d Retries=%d, want 1/1", m.Malformed, m.Retries)
	}
	if st := r.WorkerStatuses()[0]; !st.Up {
		t.Fatal("malformed response marked the worker down")
	}
}

// TestRetryAfter5xx: a 5xx is a transport failure — worker down, retried.
func TestRetryAfter5xx(t *testing.T) {
	tr := (&fakeTransport{}).worker("w1",
		&fakeWorker{queue: []behavior{errReply(&StatusError{Worker: WorkerURL("w1"), Code: 503, Body: "draining"})}})
	r := newRunner(tr, "w1", "w2")
	if _, err := r.ReplayShard(testCtx(t), fakeShard()); err != nil {
		t.Fatal(err)
	}
	m := r.Metrics()
	if m.WorkerFailures != 1 || m.Retries != 1 {
		t.Fatalf("WorkerFailures=%d Retries=%d, want 1/1", m.WorkerFailures, m.Retries)
	}
}

// TestStealFromHungWorker: a worker that accepts the shard and never
// answers is outrun — the steal timer duplicates the dispatch onto the
// second worker, whose response wins and cancels the hung request.
func TestStealFromHungWorker(t *testing.T) {
	tr := (&fakeTransport{}).worker("w1", &fakeWorker{fallback: hangReply})
	r := newRunner(tr, "w1", "w2")
	r.StealAfter = 20 * time.Millisecond
	results, err := r.ReplayShard(testCtx(t), fakeShard())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	m := r.Metrics()
	if m.Steals != 1 || m.StolenWins != 1 {
		t.Fatalf("Steals=%d StolenWins=%d, want 1/1", m.Steals, m.StolenWins)
	}
	if m.WorkerFailures != 0 {
		t.Fatalf("WorkerFailures=%d — the cancelled loser must not count as a failure", m.WorkerFailures)
	}
}

// TestRefusalIsCountedAndGivesUp: a worker that keeps refusing the shard
// (in-band Error) exhausts the attempt budget; the final error names the
// shard, the attempts and the refusal.
func TestRefusalIsCountedAndGivesUp(t *testing.T) {
	tr := (&fakeTransport{}).worker("w1", &fakeWorker{fallback: refuseReply(`unknown scenario "nope"`)})
	r := newRunner(tr, "w1")
	r.MaxAttempts = 2
	_, err := r.ReplayShard(testCtx(t), fakeShard())
	if err == nil {
		t.Fatal("refusing worker produced no error")
	}
	for _, want := range []string{
		"fleet: shard " + corpus.ShardIDFor(fakeShard()),
		"gave up after 2 attempts",
		`refused shard: unknown scenario "nope"`,
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q\n  missing %q", err, want)
		}
	}
	m := r.Metrics()
	if m.Refused != 2 || m.Retries != 1 {
		t.Fatalf("Refused=%d Retries=%d, want 2/1", m.Refused, m.Retries)
	}
}

// TestResponseValidation pins the refusal paths for responses that decode
// but answer the wrong question: wrong protocol, wrong shard echoed,
// wrong result count.
func TestResponseValidation(t *testing.T) {
	shard := fakeShard()
	shardID := corpus.ShardIDFor(shard)
	cases := []struct {
		name      string
		reply     behavior
		want      string
		malformed int64
		refused   int64
	}{
		{"wrong protocol", rawReply(`{"version":9,"results":[{},{}]}`), "speaks protocol 9, want 1", 0, 1},
		{"wrong shard echoed", rawReply(`{"version":1,"shard_id":"beef","results":[{},{}]}`), "echoed shard beef, want " + shardID, 0, 1},
		{"wrong result count", rawReply(`{"version":1,"results":[{}]}`), "returned 1 results for 2 reports", 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := (&fakeTransport{}).worker("w1", &fakeWorker{fallback: tc.reply})
			r := newRunner(tr, "w1")
			r.MaxAttempts = 1
			_, err := r.ReplayShard(testCtx(t), shard)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
			m := r.Metrics()
			if m.Malformed != tc.malformed || m.Refused != tc.refused {
				t.Fatalf("Malformed=%d Refused=%d, want %d/%d", m.Malformed, m.Refused, tc.malformed, tc.refused)
			}
		})
	}
}

// TestAllWorkersDown: every dispatch and every probe fails — the runner
// gives up naming the pool size and counts the probe failures.
func TestAllWorkersDown(t *testing.T) {
	dead := errReply(&StatusError{Code: 502, Body: "bad gateway"})
	tr := (&fakeTransport{}).
		worker("w1", &fakeWorker{fallback: dead}).
		worker("w2", &fakeWorker{fallback: dead}).
		sick("w1", &StatusError{Code: 502}).
		sick("w2", &StatusError{Code: 502})
	r := newRunner(tr, "w1", "w2")
	_, err := r.ReplayShard(testCtx(t), fakeShard())
	if err == nil {
		t.Fatal("dead pool produced no error")
	}
	if !strings.Contains(err.Error(), "all 2 workers down") {
		t.Fatalf("error %q does not name the dead pool", err)
	}
	m := r.Metrics()
	if m.WorkerFailures < 2 {
		t.Fatalf("WorkerFailures=%d, want >= 2", m.WorkerFailures)
	}
	if m.ProbeFailures < 2 {
		t.Fatalf("ProbeFailures=%d, want >= 2", m.ProbeFailures)
	}
}

// TestProbeRevivesWorker: a worker marked down by a transport blip is
// revived by the health probe and serves the retry — the pool heals
// without operator action.
func TestProbeRevivesWorker(t *testing.T) {
	tr := (&fakeTransport{}).worker("w1",
		&fakeWorker{queue: []behavior{errReply(&StatusError{Code: 500, Body: "hiccup"})}})
	r := newRunner(tr, "w1")
	if _, err := r.ReplayShard(testCtx(t), fakeShard()); err != nil {
		t.Fatal(err)
	}
	m := r.Metrics()
	if m.WorkerFailures != 1 || m.Retries != 1 {
		t.Fatalf("WorkerFailures=%d Retries=%d, want 1/1", m.WorkerFailures, m.Retries)
	}
	if st := r.WorkerStatuses()[0]; !st.Up {
		t.Fatal("revived worker still marked down")
	}
}

// TestWaitHealthyDeadline: WaitHealthy is deadline-bounded and names the
// sick worker instead of sleeping forever.
func TestWaitHealthyDeadline(t *testing.T) {
	tr := (&fakeTransport{}).sick("w1", &StatusError{Code: 503, Body: "starting"})
	r := newRunner(tr, "w1")
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err := r.WaitHealthy(ctx)
	if err == nil {
		t.Fatal("sick pool reported healthy")
	}
	if !strings.Contains(err.Error(), WorkerURL("w1")) {
		t.Fatalf("error %q does not name the sick worker", err)
	}
}

// TestEventJournal: the Events JSONL journal carries the
// dispatch/failure/retry lifecycle (the harness writes it as an artifact).
func TestEventJournal(t *testing.T) {
	tr := (&fakeTransport{}).worker("w1", &fakeWorker{queue: []behavior{errReply(&StatusError{Code: 500})}})
	r := newRunner(tr, "w1", "w2")
	var journal bytes.Buffer
	r.Events = obs.NewEventSink(&journal)
	if _, err := r.ReplayShard(testCtx(t), fakeShard()); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	dec := json.NewDecoder(&journal)
	for dec.More() {
		var e Event
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("journal line does not decode: %v", err)
		}
		kinds[e.Kind]++
	}
	for _, kind := range []string{"dispatch", "worker_down", "retry", "response"} {
		if kinds[kind] == 0 {
			t.Errorf("no %q event journaled (saw %v)", kind, kinds)
		}
	}
}
