package corpus

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"pathlog/internal/instrument"
)

// hardeningCorpus builds a two-member corpus whose reports are never
// replayed: the shard ID tests need real member signatures.
func hardeningCorpus(t *testing.T) []*Report {
	t.Helper()
	c, err := Build([]Member{
		{Rec: testRec(0b101, 10), ModTime: refTime},
		{Rec: testRec(0b111, 20), ModTime: refTime.Add(-time.Hour)},
	}, Options{HalfLife: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return c.Reports
}

// TestShardIDForIsStable pins the shard identity: a function of the member
// signatures in order, stable across processes (the remote worker echoes
// it back, the merger dedupes on it).
func TestShardIDForIsStable(t *testing.T) {
	reports := hardeningCorpus(t)
	a, b := ShardIDFor(reports), ShardIDFor(reports)
	if a != b || a == "" {
		t.Fatalf("shard ID unstable: %q vs %q", a, b)
	}
	if rev := ShardIDFor([]*Report{reports[1], reports[0]}); rev == a {
		t.Fatal("shard ID ignores member order")
	}
	if sub := ShardIDFor(reports[:1]); sub == a {
		t.Fatal("shard ID ignores membership")
	}
}

// mergeRun builds a run acceptable to a merger pinned to
// (fixedProgHash, "aabb", 2).
func mergeRun(runs int) ReportRun {
	return ReportRun{Profile: &instrument.SearchProfile{
		ProgHash: fixedProgHash, PlanFingerprint: "aabb", Generation: 2, Runs: runs,
	}}
}

// TestMergerAddShardDedupes: the same shard delivered twice — the exact
// shape a stolen-then-unstolen duplicate produces — must merge exactly
// once, with the duplicate counted, and a refused shard must leave the
// merge untouched and the shard unmarked (a valid retry still merges).
func TestMergerAddShardDedupes(t *testing.T) {
	m := NewMerger(fixedProgHash, "aabb", 2)
	runs := []ReportRun{mergeRun(1), mergeRun(1)}
	weights := []float64{1, 1}

	merged, err := m.AddShard("shard-a", runs, weights)
	if err != nil || !merged {
		t.Fatalf("first delivery: merged=%v err=%v", merged, err)
	}
	merged, err = m.AddShard("shard-a", runs, weights)
	if err != nil {
		t.Fatalf("duplicate delivery errored: %v", err)
	}
	if merged {
		t.Fatal("duplicate delivery merged twice")
	}
	if got := m.DuplicateDeliveries(); got != 1 {
		t.Fatalf("DuplicateDeliveries = %d, want 1", got)
	}
	if got := m.Profile().Runs; got != 2 {
		t.Fatalf("merged Runs = %d, want 2 (one delivery of two unit runs)", got)
	}

	// A shard with one bad run is refused atomically: nothing merged, not
	// marked seen.
	bad := []ReportRun{mergeRun(1), {Profile: &instrument.SearchProfile{
		ProgHash: "ffee", PlanFingerprint: "aabb", Generation: 2, Runs: 1,
	}}}
	if _, err := m.AddShard("shard-b", bad, weights); err == nil {
		t.Fatal("foreign profile accepted inside a shard")
	}
	if got := m.Profile().Runs; got != 2 {
		t.Fatalf("refused shard mutated the merge: Runs = %d, want 2", got)
	}
	merged, err = m.AddShard("shard-b", runs, weights)
	if err != nil || !merged {
		t.Fatalf("retry after refusal: merged=%v err=%v", merged, err)
	}

	if _, err := m.AddShard("shard-c", runs, []float64{1}); err == nil {
		t.Fatal("runs/weights length mismatch accepted")
	}
}

// TestMergerConcurrentStolenDuplicates races many duplicate deliveries of
// the same shards against the merger under -race: every shard must merge
// exactly once no matter how many workers answered, and the losers must
// all be counted.
func TestMergerConcurrentStolenDuplicates(t *testing.T) {
	const (
		shards     = 8
		deliveries = 4 // workers racing to deliver each shard
	)
	m := NewMerger(fixedProgHash, "aabb", 2)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		shardID := ShardIDFor(nil) + string(rune('a'+s))
		for d := 0; d < deliveries; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := m.AddShard(shardID, []ReportRun{mergeRun(1)}, []float64{1}); err != nil {
					t.Errorf("shard %s: %v", shardID, err)
				}
			}()
		}
	}
	wg.Wait()
	if got := m.Profile().Runs; got != shards {
		t.Fatalf("merged Runs = %d, want %d (each shard exactly once)", got, shards)
	}
	if got := m.DuplicateDeliveries(); got != shards*(deliveries-1) {
		t.Fatalf("DuplicateDeliveries = %d, want %d", got, shards*(deliveries-1))
	}
}

// TestReplayProfileUnchangedByAddShard guards the refactor of Replay's
// merge loop (per-report Add → per-shard AddShard): the merged profile
// must be what per-report adds produce.
func TestReplayProfileUnchangedByAddShard(t *testing.T) {
	c, err := Build([]Member{
		{Rec: testRec(0b101, 10), ModTime: refTime},
		{Rec: testRec(0b111, 20), ModTime: refTime.Add(-time.Hour)},
		{Rec: testRec(0b011, 30), ModTime: refTime.Add(-2 * time.Hour)},
	}, Options{HalfLife: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	runner := &indexRunner{runs: map[*Report]int{}}
	for i, rep := range c.Reports {
		runner.runs[rep] = i + 1
	}
	out, err := Replay(context.Background(), c, 2, runner)
	if err != nil {
		t.Fatal(err)
	}
	want := NewMerger(fixedProgHash, testPlan().Fingerprint(), 0)
	parts := c.Partition(2)
	for _, part := range parts {
		for _, rep := range part {
			if err := want.Add(ReportRun{Profile: &instrument.SearchProfile{
				ProgHash:        fixedProgHash,
				PlanFingerprint: rep.Rec.Plan.Fingerprint(),
				Runs:            runner.runs[rep],
			}}, rep.Weight); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !reflect.DeepEqual(out.Profile, want.Profile()) {
		t.Fatalf("Replay profile diverges from per-report merge:\n got %+v\nwant %+v", out.Profile, want.Profile())
	}
}
