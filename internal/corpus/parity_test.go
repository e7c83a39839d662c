package corpus_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"pathlog/internal/apps"
	"pathlog/internal/concolic"
	"pathlog/internal/core"
	"pathlog/internal/corpus"
	"pathlog/internal/instrument"
	"pathlog/internal/lang"
	"pathlog/internal/replay"
	"pathlog/internal/static"
	"pathlog/internal/world"
)

// parityCorpus builds a three-member uServer corpus: three distinct
// crashing inputs (experiments 1, 2 and 4 — the quick replays) recorded
// under one low-coverage dynamic plan of the userver-exp3 scenario.
func parityCorpus(t *testing.T) (*corpus.Corpus, *apps.Scenario) {
	t.Helper()
	ctx := context.Background()
	s3, err := apps.UServerScenario(3, 72)
	if err != nil {
		t.Fatal(err)
	}
	an := apps.UServerAnalysisScenario()
	dyn := concolic.New(an.Prog, an.Spec, world.NewRegistry(an.Spec), concolic.Options{MaxRuns: 6}).Explore(ctx)
	st := static.Analyze(s3.Prog, static.Options{LibAsSymbolic: true})
	plan, err := instrument.Dynamic().Plan(ctx, instrument.NewPlanContext(s3.Prog, instrument.Inputs{Dynamic: dyn, Static: st}, true))
	if err != nil {
		t.Fatal(err)
	}

	base := time.Unix(1_700_000_000, 0)
	var members []corpus.Member
	for i, exp := range []int{1, 2, 4} {
		se, err := apps.UServerScenario(exp, 72)
		if err != nil {
			t.Fatal(err)
		}
		rec, _, err := core.Record(ctx, nil, s3.Prog, s3.Spec, se.UserBytes, plan)
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			t.Fatalf("exp%d did not crash", exp)
		}
		members = append(members, corpus.Member{Rec: rec, ModTime: base.Add(time.Duration(i) * time.Hour)})
	}
	c, err := corpus.Build(members, corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Reports) != 3 {
		t.Fatalf("parity corpus has %d members, want 3 distinct", len(c.Reports))
	}
	return c, s3
}

// normalize strips wall-clock fields so profiles can be compared across
// shard counts.
func normalize(p *instrument.SearchProfile) *instrument.SearchProfile {
	out := *p
	out.Branches = make(map[lang.BranchID]*instrument.BranchCost, len(p.Branches))
	for id, bc := range p.Branches {
		c := *bc
		c.SolverTime = 0
		out.Branches[id] = &c
	}
	return &out
}

// TestShardParity is the sharded-replay correctness gate: the weighted
// merged profile must be identical whether the corpus replays in 1 shard
// or 4. Run under -race (CI does), the 4-shard arm also exercises the
// concurrent shard goroutines against the shared merger. The remote arms
// (the same corpus over shardworkerd daemons) live in the fleet package's
// TestRemoteShardParity.
func TestShardParity(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a corpus twice")
	}
	ctx := context.Background()
	c, s3 := parityCorpus(t)
	opts := replay.Options{MaxRuns: 1500, TimeBudget: 15 * time.Second}

	type config struct {
		name   string
		shards int
		runner corpus.Runner
	}
	configs := []config{
		{"inproc-1", 1, &corpus.InProcessRunner{Prog: s3.Prog, Spec: s3.Spec, Opts: opts}},
		{"inproc-4", 4, &corpus.InProcessRunner{Prog: s3.Prog, Spec: s3.Spec, Opts: opts}},
	}
	var ref *instrument.SearchProfile
	var refOut *corpus.Outcome
	for _, cfg := range configs {
		out, err := corpus.Replay(ctx, c, cfg.shards, cfg.runner)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if out.Reproduced != out.Members {
			t.Fatalf("%s: %d/%d reproduced — fixture must be all-quick replays",
				cfg.name, out.Reproduced, out.Members)
		}
		got := normalize(out.Profile)
		if ref == nil {
			ref, refOut = got, out
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: merged profile diverges from %s:\n got %+v\n ref %+v",
				cfg.name, configs[0].name, got, ref)
		}
		if out.MeanRuns != refOut.MeanRuns || out.MaxRuns != refOut.MaxRuns {
			t.Errorf("%s: population stats diverge: mean %g max %d vs mean %g max %d",
				cfg.name, out.MeanRuns, out.MaxRuns, refOut.MeanRuns, refOut.MaxRuns)
		}
	}
}
