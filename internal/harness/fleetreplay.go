package harness

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"pathlog"
	"pathlog/internal/apps"
	"pathlog/internal/concolic"
	"pathlog/internal/core"
	"pathlog/internal/corpus"
	"pathlog/internal/fleet"
	"pathlog/internal/instrument"
	"pathlog/internal/lang"
	"pathlog/internal/obs"
	"pathlog/internal/replay"
	"pathlog/internal/static"
)

// Chaos timing for the fleet-replay experiment. Every daemon holds each
// shard for workerdHold before replaying it, which opens a wide window in
// which a worker is observably busy (/healthz inflight >= 1) and the
// killer can SIGKILL it mid-shard; stealDeadline is well below the hold,
// so every surviving wave also demonstrates a duplicate dispatch. The
// margin hold >> steal >> kill-poll keeps the kill landing before the
// steal timer fires on the victim's shard, which is what makes the retry
// counter deterministic.
const (
	workerdHold   = 750 * time.Millisecond
	stealDeadline = 400 * time.Millisecond
)

// FleetReplay drives the distributed replay fleet end to end the way the
// chaos gate in internal/fleet does, but as an inspectable experiment: a
// corpus balance loop fans its replay shards out over real shardworkerd
// daemons (cmd/shardworkerd) on localhost, and one daemon is SIGKILLed
// while it holds a shard mid-flight.
//
// The experiment checks the subsystem's three claims:
//
//   - Chaos survival: the balance loop rides out the worker death on
//     retry + work stealing and still converges.
//   - Distributed parity: the chaos trajectory is identical to an
//     in-process control run — same plans, same measurements, same merged
//     profiles once wall-clock fields are stripped. Distribution moves
//     bytes, not results.
//   - Failure handling exercised: the runner's retry, steal and
//     worker-failure counters are all nonzero, and the victim ends the
//     run marked down.
//
// The runner's event stream and final counters are written as JSONL and
// JSON artifacts when FleetReplayJournalOut / FleetReplayMetricsOut are
// set (CI uploads them).
func (c Config) FleetReplay(ctx context.Context) (*Table, error) {
	workers := c.FleetReplayWorkers
	if workers < 3 {
		workers = 3
	}

	crp, s3, err := c.fleetReplayCorpus(ctx)
	if err != nil {
		return nil, err
	}
	bounds := replay.Options{MaxRuns: c.ReplayMaxRuns, TimeBudget: c.ReplayBudget}

	// Control and chaos sessions must be configured identically, so their
	// trajectories can only diverge if distribution changes results.
	session := func() *pathlog.Session {
		return pathlog.SessionOf(s3,
			pathlog.WithSyscallLog(),
			pathlog.WithAnalysisSpec(apps.UServerAnalysisScenario().Spec),
			pathlog.WithDynamicBudget(c.UServerAnalysisRunsLC, 0),
			pathlog.WithStaticOptions(static.Options{LibAsSymbolic: true}),
			pathlog.WithReplayBudget(bounds.MaxRuns, bounds.TimeBudget))
	}
	target := c.CorpusTargetRuns
	if target <= 0 {
		target = c.AdaptiveTargetRuns
	}
	balanceOpts := func() pathlog.BalanceOptions {
		return pathlog.BalanceOptions{
			TargetReplayRuns: target,
			MaxGenerations:   c.AdaptiveMaxGenerations,
			Shards:           workers,
		}
	}

	ctrl, err := session().CorpusBalance(ctx, crp, balanceOpts())
	if err != nil {
		return nil, fmt.Errorf("harness: in-process control balance: %w", err)
	}

	bin := c.FleetReplayWorkerCmd
	if bin == "" {
		bin, err = buildShardWorkerd(ctx)
		if err != nil {
			return nil, err
		}
	}
	daemons := make([]*shardDaemon, workers)
	urls := make([]string, workers)
	for i := range daemons {
		d, err := startShardWorkerd(ctx, bin, "-delay", workerdHold.String())
		if err != nil {
			return nil, err
		}
		defer d.stop()
		daemons[i] = d
		urls[i] = d.url
	}

	runner := fleet.NewRemoteRunner(urls, s3.Name, bounds)
	runner.StealAfter = stealDeadline
	// The event journal is one obs.EventSink consumer of the runner's
	// stream — the same schema and encoder every other journal in the
	// system uses, not a private encoding.
	var journal bytes.Buffer
	sink := obs.NewEventSink(&journal)
	runner.Events = sink
	hctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	err = runner.WaitHealthy(hctx)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("harness: fleet never became healthy: %w", err)
	}

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
			for _, d := range daemons {
				if n, err := daemonInflight(cl, d.url); err == nil && n >= 1 {
					d.cmd.Process.Kill()
					killed <- d.url
					return
				}
			}
		}
	}()

	t := &Table{
		ID: "FleetReplay",
		Title: fmt.Sprintf("distributed replay fleet: corpus balance sharded over %d HTTP workers, one SIGKILLed mid-shard",
			workers),
		Header: []string{"gen", "strategy", "locs", "mean bits", "mean runs", "max runs", "repro", "promoted", "demoted"},
	}
	chaosOpts := balanceOpts()
	chaosOpts.Runner = runner
	chaosOpts.OnCorpusGeneration = func(pt pathlog.CorpusPoint) {
		t.AddRow(fmt.Sprintf("%d", pt.Generation),
			shorten(pt.Plan.Strategy, 34),
			fmt.Sprintf("%d", pt.Plan.NumInstrumented()),
			fmt.Sprintf("%.1f", pt.MeanOverheadBits),
			fmt.Sprintf("%.1f", pt.MeanReplayRuns),
			fmt.Sprintf("%d", pt.MaxReplayRuns),
			fmt.Sprintf("%d/%d", pt.Reproduced, pt.Members),
			fmt.Sprintf("%d", len(pt.Promoted)),
			fmt.Sprintf("%d", len(pt.Demoted)))
	}
	chaos, err := session().CorpusBalance(ctx, crp, chaosOpts)
	if err != nil {
		return nil, fmt.Errorf("harness: chaos balance: %w", err)
	}
	stopKiller()
	victim := <-killed

	// Artifacts before judging, so a failed run still leaves its evidence.
	eventCount := int(sink.Count())
	if c.FleetReplayJournalOut != "" {
		if err := os.WriteFile(c.FleetReplayJournalOut, journal.Bytes(), 0o644); err != nil {
			return nil, err
		}
	}
	m := runner.Metrics()
	if c.FleetReplayMetricsOut != "" {
		data, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(c.FleetReplayMetricsOut, data, 0o644); err != nil {
			return nil, err
		}
	}

	if chaos.Converged {
		t.Notes = append(t.Notes, fmt.Sprintf("fleet replay balance: converged: %s", chaos.Reason))
	} else {
		t.Notes = append(t.Notes, fmt.Sprintf("fleet replay balance: NOT converged: %s", chaos.Reason))
	}

	up := 0
	for _, st := range runner.WorkerStatuses() {
		if st.Up {
			up++
		}
	}
	victimDown := victim != ""
	for _, st := range runner.WorkerStatuses() {
		if st.URL == fleet.WorkerURL(victim) && st.Up {
			victimDown = false
		}
	}
	if victim != "" && victimDown {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"chaos kill: SIGKILLed worker %s while it held a shard; %d of %d workers survived and the victim ended marked down",
			victim, up, workers))
	} else if victim != "" {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"chaos kill: NOT demonstrated — %s was killed but still reads as up", victim))
	} else {
		t.Notes = append(t.Notes, "chaos kill: NOT demonstrated — no worker was ever observed holding a shard")
	}

	if diag := trajectoryDiff(ctrl, chaos); diag == "" {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"distributed parity: chaos trajectory matches the in-process control exactly — %d generation(s), identical plans, measurements and merged profiles",
			len(chaos.Points)))
	} else {
		t.Notes = append(t.Notes, "distributed parity: FAILED — "+diag)
	}

	counters := fmt.Sprintf("%d retries, %d steals (%d stolen wins), %d worker failures over %d dispatches",
		m.Retries, m.Steals, m.StolenWins, m.WorkerFailures, m.Dispatched)
	if m.Retries > 0 && m.Steals > 0 && m.WorkerFailures > 0 {
		t.Notes = append(t.Notes, "failure handling exercised: "+counters)
	} else {
		t.Notes = append(t.Notes, "failure handling NOT exercised: "+counters)
	}
	if c.FleetReplayJournalOut != "" {
		t.Notes = append(t.Notes, fmt.Sprintf("event journal: %d event(s) -> %s", eventCount, c.FleetReplayJournalOut))
	} else {
		t.Notes = append(t.Notes, fmt.Sprintf("event journal: %d event(s) observed (no -fleet-replay-journal-out)", eventCount))
	}
	return t, nil
}

// fleetReplayCorpus builds the three-member uServer corpus the chaos gate
// replays: experiments 1, 2 and 4 recorded under one low-coverage dynamic
// plan of userver-exp3, each member carrying its user input so the balance
// loop can re-record it under refined plans.
func (c Config) fleetReplayCorpus(ctx context.Context) (*corpus.Corpus, *core.Scenario, error) {
	s3, err := apps.UServerScenario(3, 72)
	if err != nil {
		return nil, nil, err
	}
	an := apps.UServerAnalysisScenario()
	dyn := an.AnalyzeDynamicContext(ctx, concolic.Options{MaxRuns: c.UServerAnalysisRunsLC})
	st := s3.AnalyzeStatic(static.Options{LibAsSymbolic: true})
	plan := instrument.BuildPlan(s3.Prog, instrument.MethodDynamic,
		instrument.Inputs{Dynamic: dyn, Static: st}, true)

	base := time.Unix(1_700_000_000, 0)
	var members []corpus.Member
	for i, exp := range []int{1, 2, 4} {
		se, err := apps.UServerScenario(exp, 72)
		if err != nil {
			return nil, nil, err
		}
		scn := &core.Scenario{Name: s3.Name, Prog: s3.Prog, Spec: s3.Spec, UserBytes: se.UserBytes}
		rec, _, err := scn.RecordContext(ctx, plan)
		if err != nil {
			return nil, nil, err
		}
		if rec == nil {
			return nil, nil, fmt.Errorf("harness: uServer experiment %d did not crash", exp)
		}
		members = append(members, corpus.Member{
			Rec:       rec,
			ModTime:   base.Add(time.Duration(i) * time.Hour),
			UserBytes: se.UserBytes,
		})
	}
	crp, err := corpus.Build(members, corpus.Options{})
	if err != nil {
		return nil, nil, err
	}
	return crp, s3, nil
}

// trajectoryDiff compares two balance trajectories generation by
// generation; it returns "" when they match and a one-line diagnosis of
// the first divergence otherwise. Wall-clock fields are stripped from the
// merged profiles before comparing.
func trajectoryDiff(ctrl, chaos *pathlog.CorpusTrajectory) string {
	if !ctrl.Converged || !chaos.Converged {
		return fmt.Sprintf("control converged=%v, chaos converged=%v", ctrl.Converged, chaos.Converged)
	}
	if len(ctrl.Points) != len(chaos.Points) {
		return fmt.Sprintf("control ran %d generations, chaos %d", len(ctrl.Points), len(chaos.Points))
	}
	for i := range ctrl.Points {
		a, b := ctrl.Points[i], chaos.Points[i]
		if a.Plan.Fingerprint() != b.Plan.Fingerprint() {
			return fmt.Sprintf("generation %d deployed different plans (control %s, chaos %s)",
				i, a.Plan.Fingerprint(), b.Plan.Fingerprint())
		}
		if a.Reproduced != b.Reproduced || a.MeanReplayRuns != b.MeanReplayRuns {
			return fmt.Sprintf("generation %d measurements diverge (control %d reproduced %.1f runs, chaos %d reproduced %.1f runs)",
				i, a.Reproduced, a.MeanReplayRuns, b.Reproduced, b.MeanReplayRuns)
		}
		if !reflect.DeepEqual(stripWallClock(a.Outcome.Profile), stripWallClock(b.Outcome.Profile)) {
			return fmt.Sprintf("generation %d merged profiles diverge", i)
		}
	}
	return ""
}

// stripWallClock zeroes the per-branch solver-time fields, the only part
// of a merged search profile that varies across process boundaries.
func stripWallClock(p *instrument.SearchProfile) *instrument.SearchProfile {
	out := *p
	out.Branches = make(map[lang.BranchID]*instrument.BranchCost, len(p.Branches))
	for id, bc := range p.Branches {
		cost := *bc
		cost.SolverTime = 0
		out.Branches[id] = &cost
	}
	return &out
}

// buildShardWorkerd compiles cmd/shardworkerd into a temp dir; the binary
// lives until the process exits.
func buildShardWorkerd(ctx context.Context) (string, error) {
	if _, err := exec.LookPath("go"); err != nil {
		return "", fmt.Errorf("harness: fleetreplay needs a worker binary: go toolchain unavailable (%v) and no -fleet-replay-worker-cmd given", err)
	}
	return buildCmd(ctx, "shardworkerd")
}

// buildCmd compiles one cmd/<name> binary into a temp dir; the binary
// lives until the process exits.
func buildCmd(ctx context.Context, name string) (string, error) {
	if _, err := exec.LookPath("go"); err != nil {
		return "", fmt.Errorf("harness: building cmd/%s needs the go toolchain: %v", name, err)
	}
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("harness: cannot locate module root to build cmd/%s", name)
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(file)))
	dir, err := os.MkdirTemp("", "pathlog-harness-bin-*")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, name)
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("harness: build %s: %v\n%s", name, err, out)
	}
	return bin, nil
}

// shardDaemon is one running shard worker daemon.
type shardDaemon struct {
	url string
	cmd *exec.Cmd
}

func (d *shardDaemon) stop() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// startShardWorkerd launches a daemon on a free port and scrapes the
// "listening on http://..." line for the picked address, bounded by ctx.
func startShardWorkerd(ctx context.Context, bin string, args ...string) (*shardDaemon, error) {
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("harness: start shardworkerd: %w", err)
	}
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
			cmd.Process.Kill()
			cmd.Wait()
			return nil, fmt.Errorf("harness: shardworkerd exited before printing its address")
		}
		url := strings.TrimPrefix(strings.TrimSpace(line), "listening on ")
		if !strings.HasPrefix(url, "http://") {
			cmd.Process.Kill()
			cmd.Wait()
			return nil, fmt.Errorf("harness: unexpected shardworkerd startup line %q", line)
		}
		return &shardDaemon{url: url, cmd: cmd}, nil
	case <-ctx.Done():
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("harness: shardworkerd printed no address: %w", ctx.Err())
	}
}

// daemonInflight reads one daemon's /healthz inflight counter.
func daemonInflight(cl *http.Client, url string) (int, error) {
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
