package pathlog

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// subsetStrategy instruments an arbitrary branch subset — the adversarial
// input for the frontier property test.
type subsetStrategy struct {
	name string
	ids  []BranchID
}

func (s subsetStrategy) Name() string { return s.name }

func (s subsetStrategy) Plan(ctx context.Context, pc *PlanContext) (*Plan, error) {
	set := make(map[BranchID]bool, len(s.ids))
	for _, id := range s.ids {
		set[id] = true
	}
	return pc.NewPlan(s.name, set), nil
}

// dominates reports weak Pareto dominance of a over b with at least one
// strict improvement.
func dominates(aOver, aRuns, bOver, bRuns float64) bool {
	return aOver <= bOver && aRuns <= bRuns && (aOver < bOver || aRuns < bRuns)
}

// TestFrontierProperty sweeps random branch subsets and checks the
// frontier contract over the measurements the sweep filed in its plan
// store: output sorted by strictly increasing overhead with strictly
// decreasing replay runs, every returned point a reproduced measurement
// at its measured coordinates, no reproduced measurement dominating a
// returned point, and every reproduced measurement either on the frontier
// (by fingerprint) or matched/dominated by a frontier point.
func TestFrontierProperty(t *testing.T) {
	ctx := context.Background()
	sess := chainSession(t, WithPlanStore(t.TempDir()))
	nBranches := len(sess.Program().Branches)

	rng := rand.New(rand.NewSource(7))
	var strategies []Strategy
	for i := 0; i < 40; i++ {
		var ids []BranchID
		for b := 0; b < nBranches; b++ {
			if rng.Intn(2) == 0 {
				ids = append(ids, BranchID(b))
			}
		}
		strategies = append(strategies, subsetStrategy{name: fmt.Sprintf("subset-%d", i), ids: ids})
	}

	points, err := sess.Frontier(ctx, strategies...)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("empty frontier")
	}
	for i := 1; i < len(points); i++ {
		if !(points[i].Overhead > points[i-1].Overhead) {
			t.Errorf("overhead not strictly increasing at %d: %.3f then %.3f",
				i, points[i-1].Overhead, points[i].Overhead)
		}
		if !(points[i].ReplayRuns < points[i-1].ReplayRuns) {
			t.Errorf("replay runs not strictly decreasing at %d: %.3f then %.3f",
				i, points[i-1].ReplayRuns, points[i].ReplayRuns)
		}
	}

	st, err := sess.PlanStore()
	if err != nil {
		t.Fatal(err)
	}
	measured, err := st.Measured(points[0].Plan.ProgHash, sess.WorkloadHash())
	if err != nil {
		t.Fatal(err)
	}
	byFP := make(map[string]MeasuredPoint, len(measured))
	for _, mp := range measured {
		byFP[mp.Fingerprint] = mp
	}
	onFrontier := make(map[string]bool)
	for _, pt := range points {
		fp := pt.Plan.Fingerprint()
		onFrontier[fp] = true
		mp, ok := byFP[fp]
		if !ok || !mp.Reproduced || float64(mp.OverheadBits) != pt.Overhead || float64(mp.ReplayRuns) != pt.ReplayRuns {
			t.Errorf("frontier point %s (%.0f bits, %.0f runs) is not a reproduced measurement: %+v (filed %v)",
				pt.Strategy, pt.Overhead, pt.ReplayRuns, mp, ok)
		}
	}
	for _, mp := range measured {
		if !mp.Reproduced {
			continue
		}
		over, runs := float64(mp.OverheadBits), float64(mp.ReplayRuns)
		for _, pt := range points {
			if dominates(over, runs, pt.Overhead, pt.ReplayRuns) {
				t.Errorf("measured plan %s (%.0f,%.0f) dominates frontier point %s (%.0f,%.0f)",
					mp.Strategy, over, runs, pt.Strategy, pt.Overhead, pt.ReplayRuns)
			}
		}
		if onFrontier[mp.Fingerprint] {
			continue
		}
		covered := false
		for _, pt := range points {
			if pt.Overhead <= over && pt.ReplayRuns <= runs {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("measured plan %s (%.0f,%.0f) neither on frontier nor covered", mp.Strategy, over, runs)
		}
	}
}

// TestSessionFrontierDefaultSweep runs the no-argument sweep end to end on
// the chain program: every point it returns must be a measurement — the
// bits a fresh recording under the plan logs and the runs a fresh replay
// of it takes (the search is deterministic) — and the frontier must keep
// the paper's shape: logging more of the chain never costs more runs.
func TestSessionFrontierDefaultSweep(t *testing.T) {
	ctx := context.Background()
	sess := chainSession(t)
	points, err := sess.Frontier(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 2 {
		t.Fatalf("frontier has %d points: %+v", len(points), points)
	}
	for _, pt := range points {
		if err := pt.Plan.ValidateForProgram(sess.Program()); err != nil {
			t.Errorf("%s: %v", pt.Strategy, err)
		}
		rec, stats, err := sess.RecordWith(ctx, pt.Plan, nil)
		if err != nil || rec == nil {
			t.Fatalf("%s: record: %v", pt.Strategy, err)
		}
		res := mustReplay(t, ctx, sess, rec)
		if !res.Reproduced || float64(stats.TraceBits) != pt.Overhead || float64(res.Runs) != pt.ReplayRuns {
			t.Errorf("%s: frontier says %.0f bits, %.0f runs; measured %d bits, %d runs (reproduced %v)",
				pt.Strategy, pt.Overhead, pt.ReplayRuns, stats.TraceBits, res.Runs, res.Reproduced)
		}
	}
	// The uninstrumented baseline reports nothing, so it is refused by
	// name rather than measured.
	if _, err := sess.Frontier(ctx, None()); err == nil || !strings.Contains(err.Error(), "instruments nothing") {
		t.Errorf("Frontier measured the uninstrumented baseline: %v", err)
	}
}

// TestSessionWithStrategyEndToEnd drives a composed strategy through
// record and replay — the session workflow with no Method anywhere.
func TestSessionWithStrategyEndToEnd(t *testing.T) {
	ctx := context.Background()
	sess := chainSession(t, WithStrategy(Union(Dynamic(), StaticResidue())))
	plan, err := sess.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategy != "union(dynamic,static-residue)" {
		t.Errorf("strategy label: %q", plan.Strategy)
	}
	rec, _, err := sess.RecordWith(ctx, plan, nil)
	if err != nil || rec == nil {
		t.Fatalf("record: %v", err)
	}
	if rec.Fingerprint != plan.Fingerprint() {
		t.Errorf("recording stamp %q != plan fingerprint %q", rec.Fingerprint, plan.Fingerprint())
	}
	res := mustReplay(t, ctx, sess, rec)
	if !res.Reproduced {
		t.Fatalf("not reproduced: %+v", res)
	}
	if !sess.Verify(res.InputBytes, rec.Crash) {
		t.Fatal("input does not verify")
	}
}

// TestSessionReplayRefusesMismatch: a recording that does not fit the
// session must be refused up front, not searched.
func TestSessionReplayRefusesMismatch(t *testing.T) {
	ctx := context.Background()
	sess := chainSession(t)
	rec, _, err := sess.Record(ctx, nil)
	if err != nil || rec == nil {
		t.Fatalf("record: %v", err)
	}

	// Tampered stamp: plan and fingerprint disagree.
	tampered := *rec
	tampered.Fingerprint = "0123456789abcdef0123456789abcdef"
	if _, err := sess.Replay(ctx, &tampered); err == nil {
		t.Error("tampered fingerprint accepted")
	}

	// Same recording against a different program: program hash mismatch.
	otherProg, err := Compile(Unit{Name: "other.mc", Source: `
int main() {
	char a[8];
	getarg(0, a, 8);
	if (a[0] == 'A') { crash(1); }
	if (a[1] == 'B') { }
	if (a[2] == 'C') { }
	if (a[3] == 'D') { }
	if (a[4] == 'E') { }
	if (a[5] == 'F') { }
	return 0;
}
`})
	if err != nil {
		t.Fatal(err)
	}
	other := NewSession(otherProg, &Spec{Args: []Stream{ArgStream(0, "xxxxxx", 8)}})
	if _, err := other.Replay(ctx, rec); err == nil {
		t.Error("recording accepted for the wrong program")
	}

	// Nil recording.
	if _, err := sess.Replay(ctx, nil); err == nil {
		t.Error("nil recording accepted")
	}

	// A bad member fails the whole corpus replay before any search.
	c, err := BuildCorpus([]CorpusMember{{Rec: rec}}, CorpusIngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.ReplayCorpus(ctx, c, CorpusOptions{}); err == nil {
		t.Error("ReplayCorpus accepted a mismatched recording")
	}
}
