package pathlog

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pathlog/internal/apps"
)

// chainSrc needs a six-character password, one nested branch per byte, so a
// full-log replay walks one forced constraint per run: a predictable
// multi-run search for cancellation and batch tests.
const chainSrc = `
int main() {
	char a[8];
	getarg(0, a, 8);
	if (a[0] == 'R') {
		if (a[1] == 'E') {
			if (a[2] == 'P') {
				if (a[3] == 'L') {
					if (a[4] == 'A') {
						if (a[5] == 'Y') {
							crash(7);
						}
					}
				}
			}
		}
	}
	print_str("ok");
	return 0;
}
`

// mustReplay replays and fails the test on a validation error.
func mustReplay(t *testing.T, ctx context.Context, sess *Session, rec *Recording) *ReplayResult {
	t.Helper()
	res, err := sess.Replay(ctx, rec)
	if err != nil {
		t.Fatalf("replay refused: %v", err)
	}
	return res
}

func chainSession(t *testing.T, opts ...Option) *Session {
	t.Helper()
	prog, err := Compile(Unit{Name: "chain.mc", Source: chainSrc})
	if err != nil {
		t.Fatal(err)
	}
	base := []Option{
		WithName("chain"),
		WithUserBytes(map[string][]byte{"arg0": []byte("REPLAY")}),
		WithSyscallLog(),
		WithDynamicBudget(50, 0),
		WithReplayBudget(500, 10*time.Second),
	}
	return NewSession(prog,
		&Spec{Args: []Stream{ArgStream(0, "xxxxxx", 8)}},
		append(base, opts...)...)
}

func TestSessionEndToEnd(t *testing.T) {
	ctx := context.Background()
	sess := chainSession(t)
	for _, m := range Methods {
		plan, err := sess.PlanWith(ctx, StrategyForMethod(m))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		rec, stats, err := sess.RecordWith(ctx, plan, nil)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if rec == nil {
			t.Fatalf("%v: no recording", m)
		}
		if stats.TraceBits != int64(stats.InstrumentedExecs) {
			t.Fatalf("%v: bits/execs mismatch", m)
		}
		res := mustReplay(t, ctx, sess, rec)
		if !res.Reproduced {
			t.Fatalf("%v: not reproduced: %+v", m, res)
		}
		if got := res.InputBytes["arg0"]; string(got[:6]) != "REPLAY" {
			t.Fatalf("%v: input %q", m, got)
		}
		if !sess.Verify(res.InputBytes, rec.Crash) {
			t.Fatalf("%v: input does not verify", m)
		}
	}
}

func TestSessionAnalysisCached(t *testing.T) {
	ctx := context.Background()
	sess := chainSession(t)
	a, err := sess.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sess.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if a.Dynamic != b.Dynamic || a.Static != b.Static {
		t.Fatal("analysis not cached: got distinct reports")
	}
}

// TestSessionReplayWorkersParity checks that a corpus replay's shard
// count changes only the wall time: each member gets the same outcome and
// profile from ReplayCorpus, on one shard or several, as from a serial
// Replay — and every input the serial search finds verifies.
func TestSessionReplayWorkersParity(t *testing.T) {
	ctx := context.Background()
	sess := uServerBalanceSession(t, WithDynamicBudget(6, 0))
	plan, err := sess.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var members []CorpusMember
	for _, exp := range []int{1, 2, 4} {
		se, err := apps.UServerScenario(exp, 72)
		if err != nil {
			t.Fatal(err)
		}
		rec, _, err := sess.RecordWith(ctx, plan, se.UserBytes)
		if err != nil || rec == nil {
			t.Fatalf("exp%d: record: %v", exp, err)
		}
		members = append(members, CorpusMember{Rec: rec})
	}
	c, err := BuildCorpus(members, CorpusIngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Reports) != len(members) {
		t.Fatalf("corpus has %d members, want %d distinct", len(c.Reports), len(members))
	}
	normalize := func(p *SearchProfile) *SearchProfile {
		for _, bc := range p.Branches {
			bc.SolverTime = 0
		}
		return p
	}
	serial := make([]*ReplayResult, len(c.Reports))
	for i, rep := range c.Reports {
		serial[i] = mustReplay(t, ctx, sess, rep.Rec)
		if !serial[i].Reproduced {
			t.Fatalf("member %d not reproduced serially: %+v", i, serial[i])
		}
		if !sess.Verify(serial[i].InputBytes, rep.Rec.Crash) {
			t.Fatalf("member %d: input does not verify", i)
		}
		normalize(serial[i].Profile)
	}
	for _, shards := range []int{1, len(c.Reports)} {
		out, err := sess.ReplayCorpus(ctx, c, CorpusOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range out.Runs {
			want := serial[i]
			if !got.Reproduced || got.Runs != want.Runs {
				t.Fatalf("%d shard(s), member %d: reproduced %v in %d runs, serially in %d",
					shards, i, got.Reproduced, got.Runs, want.Runs)
			}
			if p := normalize(got.Profile); !reflect.DeepEqual(p, want.Profile) {
				t.Fatalf("%d shard(s), member %d: the corpus replay changed the profile:\n%+v\n%+v",
					shards, i, p, want.Profile)
			}
		}
	}
}

func TestSessionReplayCancelledBeforeStart(t *testing.T) {
	sess := chainSession(t)
	rec, _, err := sess.Record(context.Background(), nil)
	if err != nil || rec == nil {
		t.Fatalf("record: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res := mustReplay(t, ctx, sess, rec)
	if res.Reproduced {
		t.Fatal("cancelled replay must not reproduce")
	}
	if !res.Cancelled {
		t.Fatalf("expected Cancelled, got %+v", res)
	}
	if res.Runs != 0 {
		t.Fatalf("cancelled-before-start replay ran %d runs", res.Runs)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled replay took %s", elapsed)
	}
}

// TestSessionReplayCancelMidSearch cancels after the second completed run
// and checks the search starts no further run. The chain is recorded under
// a one-branch plan, so the search still walks several unlogged branches
// (a fuller plan follows the log and reproduces in 2 runs).
func TestSessionReplayCancelMidSearch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var replayRuns []int
	sess := chainSession(t,
		WithStrategy(Budgeted(All(), 1)),
		WithProgress(func(ev ProgressEvent) {
			if ev.Phase != "replay" {
				return
			}
			mu.Lock()
			replayRuns = append(replayRuns, ev.Runs)
			mu.Unlock()
			if ev.Runs >= 2 {
				cancel()
			}
		}),
	)
	rec, _, err := sess.Record(context.Background(), nil)
	if err != nil || rec == nil {
		t.Fatalf("record: %v", err)
	}
	res := mustReplay(t, ctx, sess, rec)
	if res.Reproduced {
		// The chain needs 7 runs under this plan; cancellation at 2 must
		// cut it short.
		t.Fatalf("replay reproduced despite cancellation after 2 runs (%d runs)", res.Runs)
	}
	if !res.Cancelled {
		t.Fatalf("expected Cancelled, got %+v", res)
	}
	// The context is checked before every run.
	if res.Runs != 2 {
		t.Fatalf("cancelled at run 2, but %d runs started", res.Runs)
	}
	mu.Lock()
	events := len(replayRuns)
	mu.Unlock()
	if events < 2 {
		t.Fatalf("progress events: %d", events)
	}
}

// TestSessionReproduceAll reproduces a batch of recordings, one per
// instrumentation method, each through ReplayCorpus as a one-report
// corpus, and checks every member reproduces and the input its search
// finds verifies against the recorded crash.
func TestSessionReproduceAll(t *testing.T) {
	ctx := context.Background()
	sess := chainSession(t)
	for _, m := range Methods {
		plan, err := sess.PlanWith(ctx, StrategyForMethod(m))
		if err != nil {
			t.Fatal(err)
		}
		rec, _, err := sess.RecordWith(ctx, plan, nil)
		if err != nil || rec == nil {
			t.Fatalf("%v: record: %v", m, err)
		}
		out, err := sess.ReplayCorpus(ctx, oneReport(t, rec), CorpusOptions{})
		if err != nil {
			t.Fatalf("%v: corpus replay: %v", m, err)
		}
		if len(out.Runs) != 1 || !out.AllReproduced() {
			t.Fatalf("%v: corpus replay did not reproduce: %+v", m, out)
		}
		res := mustReplay(t, ctx, sess, rec)
		if !res.Reproduced || res.Runs != out.Runs[0].Runs {
			t.Fatalf("%v: reproduced %v in %d runs serially, in %d through the corpus",
				m, res.Reproduced, res.Runs, out.Runs[0].Runs)
		}
		if !sess.Verify(res.InputBytes, rec.Crash) {
			t.Fatalf("%v: input does not verify", m)
		}
	}
}

func TestSessionReproduceOneShot(t *testing.T) {
	ctx := context.Background()
	sess := chainSession(t)
	res, rec, err := sess.Reproduce(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || res == nil || !res.Reproduced {
		t.Fatalf("one-shot failed: rec=%v res=%+v", rec != nil, res)
	}
	// A non-crashing input yields no report and no error.
	res, rec, err = sess.Reproduce(ctx, map[string][]byte{"arg0": []byte("no")})
	if err != nil {
		t.Fatal(err)
	}
	if res != nil || rec != nil {
		t.Fatal("non-crashing run must yield no report")
	}
}

// TestSessionRejectsUnknownStream: a typo'd UserBytes key must fail loudly
// instead of silently recording the wrong input.
func TestSessionRejectsUnknownStream(t *testing.T) {
	ctx := context.Background()
	sess := chainSession(t)
	_, _, err := sess.Record(ctx, map[string][]byte{"arg1": []byte("REPLAY")})
	if err == nil {
		t.Fatal("unknown stream key must error")
	}
	if !strings.Contains(err.Error(), "arg1") {
		t.Fatalf("error does not name the bad stream: %v", err)
	}
}

func TestSessionProgressPhases(t *testing.T) {
	ctx := context.Background()
	var mu sync.Mutex
	phases := map[string]int{}
	sess := chainSession(t, WithProgress(func(ev ProgressEvent) {
		if ev.Scenario != "chain" {
			t.Errorf("scenario: %q", ev.Scenario)
		}
		mu.Lock()
		phases[ev.Phase]++
		mu.Unlock()
	}))
	res, rec, err := sess.Reproduce(ctx, nil)
	if err != nil || rec == nil || !res.Reproduced {
		t.Fatalf("reproduce: %v %v", err, res)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, phase := range []string{"analyze", "record", "replay"} {
		if phases[phase] == 0 {
			t.Errorf("no %s progress events (got %v)", phase, phases)
		}
	}
}
