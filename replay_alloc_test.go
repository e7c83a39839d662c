package pathlog

import (
	"context"
	"testing"
	"time"

	"pathlog/internal/apps"
	"pathlog/internal/instrument"
	"pathlog/internal/obs"
)

// TestReplayAllocs guards the fixed allocation cost of one reproduction:
// BenchmarkReplayCold's paste report under the dynamic+static plan, which
// reproduces in two runs and one solve. Before byte variables were carved
// from one spec-sized block and named on demand, a Session.Replay of it
// allocated 320 objects, about a third of them a key string, a variable
// and map entries for each input byte the first run read. The bound is half
// of that, so per-byte allocation cannot come back unnoticed.
func TestReplayAllocs(t *testing.T) {
	s, err := apps.CoreutilScenario("paste", 12)
	if err != nil {
		t.Fatal(err)
	}
	in := analysesFor(t, apps.AnalysisSpec(s), 300, false)
	rec, _, err := s.RecordContext(context.Background(), s.Plan(instrument.MethodDynamicStatic, in, true))
	if err != nil || rec == nil {
		t.Fatalf("record: %v", err)
	}
	sess := SessionOf(s,
		WithReplayBudget(4000, 30*time.Second),
		WithObserver(&Observer{Reg: obs.NewRegistry()}))
	replay := func() {
		res, err := sess.Replay(context.Background(), rec)
		if err != nil || !res.Reproduced || res.Runs != 2 {
			t.Fatalf("replay: %v %+v", err, res)
		}
	}
	replay() // warm the bytecode and the solver and scratch free lists
	const limit = 320 / 2
	if n := testing.AllocsPerRun(20, replay); n > limit {
		t.Fatalf("Session.Replay allocates %.0f objects, want at most %d", n, limit)
	} else {
		t.Logf("Session.Replay allocates %.0f objects", n)
	}
}
