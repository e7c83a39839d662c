package fleet_test

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"pathlog"
	"pathlog/internal/apps"
	"pathlog/internal/concolic"
	"pathlog/internal/core"
	"pathlog/internal/corpus"
	"pathlog/internal/fleet"
	"pathlog/internal/instrument"
	"pathlog/internal/lang"
	"pathlog/internal/replay"
	"pathlog/internal/static"
)

// repoRoot locates the module root from this file's path, for go build.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// buildWorkerd compiles cmd/shardworkerd into a temp dir.
func buildWorkerd(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain unavailable: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "shardworkerd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/shardworkerd")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build shardworkerd: %v\n%s", err, out)
	}
	return bin
}

// workerd is one running shard worker daemon.
type workerd struct {
	url string
	cmd *exec.Cmd
}

// startWorkerd launches a daemon on a free port and scrapes the
// "listening on http://..." line for the picked address, bounded by ctx.
func startWorkerd(t *testing.T, ctx context.Context, bin string, args ...string) *workerd {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start shardworkerd: %v", err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
		io.Copy(io.Discard, stdout)
	}()
	select {
	case line, ok := <-lines:
		if !ok {
			t.Fatal("shardworkerd exited before printing its address")
		}
		url := strings.TrimPrefix(strings.TrimSpace(line), "listening on ")
		if !strings.HasPrefix(url, "http://") {
			t.Fatalf("unexpected startup line %q", line)
		}
		return &workerd{url: url, cmd: cmd}
	case <-ctx.Done():
		t.Fatalf("shardworkerd printed no address: %v", ctx.Err())
	}
	return nil
}

// waitFleet polls every daemon's /healthz until the whole pool answers.
func waitFleet(t *testing.T, ctx context.Context, urls []string) {
	t.Helper()
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	r := fleet.NewRemoteRunner(urls, "", replay.Options{})
	if err := r.WaitHealthy(wctx); err != nil {
		t.Fatalf("fleet never became healthy: %v", err)
	}
}

// fleetCorpus builds the three-member uServer corpus of the in-process
// parity test (experiments 1, 2 and 4 recorded under one low-coverage
// dynamic plan of userver-exp3), with each member carrying its user input
// so CorpusBalance can re-record it.
func fleetCorpus(t *testing.T) (*corpus.Corpus, *core.Scenario) {
	t.Helper()
	ctx := context.Background()
	s3, err := apps.UServerScenario(3, 72)
	if err != nil {
		t.Fatal(err)
	}
	an := apps.UServerAnalysisScenario()
	dyn := an.AnalyzeDynamicContext(ctx, concolic.Options{MaxRuns: 6})
	st := s3.AnalyzeStatic(static.Options{LibAsSymbolic: true})
	plan := instrument.BuildPlan(s3.Prog, instrument.MethodDynamic,
		instrument.Inputs{Dynamic: dyn, Static: st}, true)

	base := time.Unix(1_700_000_000, 0)
	var members []corpus.Member
	for i, exp := range []int{1, 2, 4} {
		se, err := apps.UServerScenario(exp, 72)
		if err != nil {
			t.Fatal(err)
		}
		scn := &core.Scenario{Name: s3.Name, Prog: s3.Prog, Spec: s3.Spec, UserBytes: se.UserBytes}
		rec, _, err := scn.RecordContext(ctx, plan)
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			t.Fatalf("exp%d did not crash", exp)
		}
		members = append(members, corpus.Member{
			Rec:       rec,
			ModTime:   base.Add(time.Duration(i) * time.Hour),
			UserBytes: se.UserBytes,
		})
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

// normalize strips wall-clock fields so profiles compare across runners
// and process boundaries.
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

// replayBounds are the replay options every parity leg shares; the remote
// runner ships them in the shard request, so workers search under the
// exact same budget the in-process runner does.
var replayBounds = replay.Options{MaxRuns: 1500, TimeBudget: 15 * time.Second}

// TestRemoteShardParity is the remote-replay correctness gate: the merged
// weighted profile must be byte-identical whether the corpus replays
// in-process or over HTTP against real shardworkerd daemons — 1 worker or
// 4 — and whether the pool is wired per-call (RemoteRunner) or per-session
// (WithFleet). Run under -race in CI.
func TestRemoteShardParity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a worker daemon and replays a corpus over HTTP")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	c, s3 := fleetCorpus(t)
	bin := buildWorkerd(t)
	var urls []string
	for i := 0; i < 4; i++ {
		urls = append(urls, startWorkerd(t, ctx, bin).url)
	}
	waitFleet(t, ctx, urls)

	remote := func(workers []string) *fleet.RemoteRunner {
		return fleet.NewRemoteRunner(workers, s3.Name, replayBounds)
	}
	configs := []struct {
		name   string
		shards int
		runner corpus.Runner
	}{
		{"inproc-1", 1, &corpus.InProcessRunner{Prog: s3.Prog, Spec: s3.Spec, Opts: replayBounds}},
		{"remote-1", 1, remote(urls[:1])},
		{"remote-4", 4, remote(urls)},
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

	// Session plumbing: WithFleet must produce the same outcome through
	// ReplayCorpus (one shard per worker by default) as a fleetless session.
	sessFleet := pathlog.SessionOf(s3,
		pathlog.WithReplayBudget(replayBounds.MaxRuns, replayBounds.TimeBudget),
		pathlog.WithReplayWorkers(1),
		pathlog.WithFleet(urls[:3]...))
	outFleet, err := sessFleet.ReplayCorpus(ctx, c, pathlog.CorpusOptions{})
	if err != nil {
		t.Fatalf("session fleet replay: %v", err)
	}
	if got := normalize(outFleet.Profile); !reflect.DeepEqual(got, ref) {
		t.Errorf("WithFleet session replay diverges from in-process:\n got %+v\n ref %+v", got, ref)
	}
	if outFleet.MeanRuns != refOut.MeanRuns || outFleet.MaxRuns != refOut.MaxRuns {
		t.Errorf("WithFleet population stats diverge: mean %g max %d vs mean %g max %d",
			outFleet.MeanRuns, outFleet.MaxRuns, refOut.MeanRuns, refOut.MaxRuns)
	}
}

// healthzInflight reads one daemon's /healthz inflight counter.
func healthzInflight(cl *http.Client, url string) (int, error) {
	resp, err := cl.Get(url + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Inflight int `json:"inflight"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, err
	}
	return h.Inflight, nil
}

// balanceSession builds a CorpusBalance session over userver-exp3 with a
// cheap, deterministic analysis budget — control and chaos sessions must
// be configured identically so their trajectories can only diverge if
// distribution changes results.
func balanceSession(t *testing.T, s3 *core.Scenario) *pathlog.Session {
	t.Helper()
	return pathlog.SessionOf(s3,
		pathlog.WithSyscallLog(),
		pathlog.WithAnalysisSpec(apps.UServerAnalysisScenario().Spec),
		pathlog.WithDynamicBudget(6, 0),
		pathlog.WithStaticOptions(static.Options{LibAsSymbolic: true}),
		pathlog.WithReplayBudget(replayBounds.MaxRuns, replayBounds.TimeBudget),
		pathlog.WithReplayWorkers(1))
}

// TestChaosWorkerDeathConverges is the chaos gate: SIGKILL one of three
// real worker daemons while it holds a shard mid-flight, and CorpusBalance
// over the surviving fleet must still converge to the exact trajectory an
// in-process control run produces — same plans, same normalized profiles —
// with the runner's retry, steal and worker-failure counters all nonzero.
// The daemons hold each shard (-delay) long enough that the kill window
// and the steal deadline are wide; the killer polls /healthz for a busy
// worker instead of sleeping.
func TestChaosWorkerDeathConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a corpus balance loop twice against real worker daemons")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	c, s3 := fleetCorpus(t)
	bin := buildWorkerd(t)

	// Control: the same loop, fully in-process.
	ctrl, err := balanceSession(t, s3).CorpusBalance(ctx, c, pathlog.BalanceOptions{Shards: 3})
	if err != nil {
		t.Fatalf("control balance: %v", err)
	}
	if !ctrl.Converged {
		t.Fatalf("control balance did not converge: %s", ctrl.Reason)
	}

	// Chaos fleet: three daemons holding every shard 750ms — a wide window
	// in which the victim is observably busy (inflight >= 1) before the
	// 400ms steal deadline duplicates anything.
	daemons := make([]*workerd, 3)
	urls := make([]string, 3)
	for i := range daemons {
		daemons[i] = startWorkerd(t, ctx, bin, "-delay", "750ms")
		urls[i] = daemons[i].url
	}
	waitFleet(t, ctx, urls)

	runner := fleet.NewRemoteRunner(urls, s3.Name, replayBounds)
	runner.StealAfter = 400 * time.Millisecond

	// The killer: poll every daemon's /healthz until one reports a shard
	// inflight, then SIGKILL that daemon mid-shard.
	killCtx, stopKiller := context.WithCancel(ctx)
	defer stopKiller()
	killed := make(chan string, 1)
	go func() {
		defer close(killed)
		cl := &http.Client{Timeout: time.Second}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-killCtx.Done():
				return
			case <-tick.C:
			}
			for _, wd := range daemons {
				if n, err := healthzInflight(cl, wd.url); err == nil && n >= 1 {
					wd.cmd.Process.Kill()
					killed <- wd.url
					return
				}
			}
		}
	}()

	chaos, err := balanceSession(t, s3).CorpusBalance(ctx, c, pathlog.BalanceOptions{
		Shards: 3,
		Runner: runner,
	})
	if err != nil {
		t.Fatalf("chaos balance: %v", err)
	}
	stopKiller()
	victim, ok := <-killed
	if !ok || victim == "" {
		t.Fatal("no worker was ever observed busy — the chaos kill never happened")
	}
	t.Logf("killed %s mid-shard", victim)

	if !chaos.Converged {
		t.Fatalf("chaos balance did not converge: %s", chaos.Reason)
	}
	if len(chaos.Points) != len(ctrl.Points) {
		t.Fatalf("trajectories diverge: chaos %d points (%s), control %d points (%s)",
			len(chaos.Points), chaos.Reason, len(ctrl.Points), ctrl.Reason)
	}
	for i := range ctrl.Points {
		a, b := ctrl.Points[i], chaos.Points[i]
		if a.Plan.Fingerprint() != b.Plan.Fingerprint() {
			t.Errorf("generation %d deployed different plans: control %s, chaos %s",
				i, a.Plan.Fingerprint(), b.Plan.Fingerprint())
		}
		if a.Reproduced != b.Reproduced || a.MeanReplayRuns != b.MeanReplayRuns {
			t.Errorf("generation %d measurements diverge: control %d reproduced %.1f runs, chaos %d reproduced %.1f runs",
				i, a.Reproduced, a.MeanReplayRuns, b.Reproduced, b.MeanReplayRuns)
		}
		if !reflect.DeepEqual(normalize(a.Outcome.Profile), normalize(b.Outcome.Profile)) {
			t.Errorf("generation %d merged profile diverges under chaos:\n got %+v\nwant %+v",
				i, normalize(b.Outcome.Profile), normalize(a.Outcome.Profile))
		}
	}

	m := runner.Metrics()
	if m.WorkerFailures == 0 {
		t.Error("worker was killed mid-shard but WorkerFailures is 0")
	}
	if m.Retries == 0 {
		t.Error("killed shard completed without a retry — Retries is 0")
	}
	if m.Steals == 0 {
		t.Error("750ms shard holds never outlived the 400ms steal deadline — Steals is 0")
	}
	for _, st := range runner.WorkerStatuses() {
		if st.URL == fleet.WorkerURL(victim) && st.Up {
			t.Errorf("killed worker %s still marked up", victim)
		}
	}
}
