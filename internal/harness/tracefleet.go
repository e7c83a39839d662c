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
	"sort"
	"strings"
	"time"

	"pathlog"
	"pathlog/internal/apps"
	"pathlog/internal/obs"
	"pathlog/internal/static"
)

// TraceFleet drives the unified observability layer end to end across
// three real processes: a pathlogd intake daemon, two shardworkerd replay
// daemons and one tune -corpus -workers invocation, every process writing
// its spans to its own -trace JSONL file.
//
// The experiment checks the tentpole's claims:
//
//   - One trace: tune's root span opens a trace ID that the corpus
//     publish (POST /report), the balance generation's fleet dispatches
//     (POST /shard) and — across both HTTP hops — the daemons' own
//     intake.ingest and worker.shard spans all share. Concatenating the
//     four JSONL files reassembles one coherent tree.
//   - Parent linkage: every remote span's parent ID is a span tune
//     itself emitted (corpus.publish for ingests, fleet.dispatch for
//     shards) — the header propagation carries span identity, not just
//     the trace ID.
//   - Uniform exposition: both daemons serve Prometheus-text /metrics
//     that obs.ParsePrometheus lints clean, each including at least one
//     histogram with observations.
func (c Config) TraceFleet(ctx context.Context) (*Table, error) {
	r, err := c.traceFleet(ctx)
	if err != nil {
		return nil, err
	}
	return r.Table, nil
}

// traceFleetResult carries the experiment's table plus the assertions'
// raw material, for the harness-level linkage test.
type traceFleetResult struct {
	Table *Table
	// TraceID is the run's single trace ID (from tune's root span).
	TraceID string
	// Spans is the merged cross-process span set.
	Spans []obs.SpanRecord
	// Generations, WorkerShards and Ingests count the spans of the run's
	// trace emitted by tune, the shard daemons and the intake daemon.
	Generations, WorkerShards, Ingests int
}

func (c Config) traceFleet(ctx context.Context) (*traceFleetResult, error) {
	root := c.TraceFleetDir
	if root == "" {
		tmp, err := os.MkdirTemp("", "pathlog-tracefleet-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		root = tmp
	}
	storeDir := filepath.Join(root, "store")
	reportsDir := filepath.Join(root, "reports")
	intakeDir := filepath.Join(root, "intake")
	if err := os.MkdirAll(reportsDir, 0o755); err != nil {
		return nil, err
	}

	// Developer site: a store-backed generation-0 plan, and three uServer
	// crash reports recorded under it as stamped-only v3 envelopes — the
	// exact files a deployed site would have shipped.
	s3, err := apps.UServerScenario(3, 72)
	if err != nil {
		return nil, err
	}
	sess := pathlog.SessionOf(s3,
		pathlog.WithAnalysisSpec(apps.UServerAnalysisScenario().Spec),
		pathlog.WithDynamicBudget(c.UServerAnalysisRunsLC, 0),
		pathlog.WithStaticOptions(static.Options{LibAsSymbolic: true}),
		pathlog.WithSyscallLog(),
		pathlog.WithStrategy(pathlog.Dynamic()),
		pathlog.WithPlanStore(storeDir),
	)
	plan, err := sess.Plan(ctx)
	if err != nil {
		return nil, err
	}
	for i, exp := range []int{1, 2, 4} {
		se, err := apps.UServerScenario(exp, 72)
		if err != nil {
			return nil, err
		}
		rec, _, err := sess.RecordWith(ctx, plan, se.UserBytes)
		if err != nil {
			return nil, err
		}
		if rec == nil {
			return nil, fmt.Errorf("harness: uServer experiment %d did not crash", exp)
		}
		data, err := rec.EncodeRef()
		if err != nil {
			return nil, err
		}
		path := filepath.Join(reportsDir, fmt.Sprintf("report-%d.json", exp))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return nil, err
		}
		// Staggered mtimes keep the recency weights deterministic.
		mt := time.Unix(1_700_000_000, 0).Add(time.Duration(i) * time.Hour)
		if err := os.Chtimes(path, mt, mt); err != nil {
			return nil, err
		}
	}

	pathlogdBin, err := buildCmd(ctx, "pathlogd")
	if err != nil {
		return nil, err
	}
	tuneBin, err := buildCmd(ctx, "tune")
	if err != nil {
		return nil, err
	}
	workerBin := c.FleetReplayWorkerCmd
	if workerBin == "" {
		if workerBin, err = buildCmd(ctx, "shardworkerd"); err != nil {
			return nil, err
		}
	}

	// The daemons, each tracing to its own file.
	pdTrace := filepath.Join(root, "pathlogd.trace.jsonl")
	pd, pdURL, err := startPathlogd(ctx, pathlogdBin,
		"-store", storeDir, "-dir", intakeDir, "-listen", "127.0.0.1:0", "-trace", pdTrace)
	if err != nil {
		return nil, err
	}
	defer pd.stop()
	workerTraces := make([]string, 2)
	workerURLs := make([]string, 2)
	for i := range workerTraces {
		workerTraces[i] = filepath.Join(root, fmt.Sprintf("worker%d.trace.jsonl", i))
		d, err := startShardWorkerd(ctx, workerBin, "-trace", workerTraces[i])
		if err != nil {
			return nil, err
		}
		defer d.stop()
		workerURLs[i] = d.url
	}

	// The run under test: one tune invocation publishing its corpus to
	// the intake daemon and fanning its replay shards over the workers.
	tuneTrace := filepath.Join(root, "tune.trace.jsonl")
	tuneCmd := exec.CommandContext(ctx, tuneBin,
		"-scenario", s3.Name,
		"-store", storeDir,
		"-corpus", reportsDir,
		"-workers", strings.Join(workerURLs, ","),
		"-report-to", pdURL,
		"-trace-out", tuneTrace,
		"-dynamic-runs", fmt.Sprint(c.UServerAnalysisRunsLC),
		"-replay-runs", fmt.Sprint(c.ReplayMaxRuns),
		"-replay-budget", c.ReplayBudget.String(),
	)
	tuneOut, err := tuneCmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("harness: tune run failed: %v\n%s", err, tuneOut)
	}

	// Scrape both daemon kinds' /metrics in Prometheus text and lint the
	// exposition; each must expose at least one histogram with
	// observations. The intake scrape also gates shutdown: all three
	// published reports must be counted before the daemons die.
	client := &http.Client{Timeout: 5 * time.Second}
	var metricsOut bytes.Buffer
	pdFams, err := scrapePromUntil(client, pdURL, &metricsOut, func(f map[string]obs.PromFamily) bool {
		return f["pathlog_intake_accepted_total"].Samples["pathlog_intake_accepted_total"] >= 3
	})
	if err != nil {
		return nil, fmt.Errorf("harness: pathlogd /metrics: %w", err)
	}
	wkFams, err := scrapePromUntil(client, workerURLs[0], &metricsOut, nil)
	if err != nil {
		return nil, fmt.Errorf("harness: shardworkerd /metrics: %w", err)
	}
	pdHist, err := histogramWithObservations(pdFams)
	if err != nil {
		return nil, fmt.Errorf("harness: pathlogd exposition: %w", err)
	}
	wkHist, err := histogramWithObservations(wkFams)
	if err != nil {
		return nil, fmt.Errorf("harness: shardworkerd exposition: %w", err)
	}
	if c.TraceFleetMetricsOut != "" {
		if err := os.WriteFile(c.TraceFleetMetricsOut, metricsOut.Bytes(), 0o644); err != nil {
			return nil, err
		}
	}

	// Merge the per-process traces into one JSONL and reassemble the tree.
	var spans []obs.SpanRecord
	var merged bytes.Buffer
	for _, path := range append([]string{tuneTrace, pdTrace}, workerTraces...) {
		ss, data, err := readSpans(path)
		if err != nil {
			return nil, err
		}
		spans = append(spans, ss...)
		merged.Write(data)
	}
	if c.TraceFleetTraceOut != "" {
		if err := os.WriteFile(c.TraceFleetTraceOut, merged.Bytes(), 0o644); err != nil {
			return nil, err
		}
	}

	res := &traceFleetResult{Spans: spans}
	byID := make(map[string]obs.SpanRecord, len(spans))
	for _, s := range spans {
		byID[s.Span] = s
	}
	for _, s := range spans {
		if s.Name == "tune" && s.Proc == "tune" {
			res.TraceID = s.Trace
		}
	}
	if res.TraceID == "" {
		return nil, fmt.Errorf("harness: tune emitted no root span (%d spans merged)", len(spans))
	}
	perProc := map[string]int{}
	names := map[string]map[string]int{}
	for _, s := range spans {
		if s.Trace != res.TraceID {
			return nil, fmt.Errorf("harness: span %s (%s, proc %s) carries trace %s, want the run's single trace %s",
				s.Span, s.Name, s.Proc, s.Trace, res.TraceID)
		}
		perProc[s.Proc]++
		if names[s.Proc] == nil {
			names[s.Proc] = map[string]int{}
		}
		names[s.Proc][s.Name]++
		switch s.Name {
		case "balance.generation":
			res.Generations++
		case "worker.shard":
			res.WorkerShards++
			if parent, ok := byID[s.Parent]; !ok || parent.Name != "fleet.dispatch" || parent.Proc != "tune" {
				return nil, fmt.Errorf("harness: worker.shard span %s does not parent under a tune fleet.dispatch span (parent %q)",
					s.Span, s.Parent)
			}
		case "intake.ingest":
			res.Ingests++
			if parent, ok := byID[s.Parent]; !ok || parent.Name != "corpus.publish" || parent.Proc != "tune" {
				return nil, fmt.Errorf("harness: intake.ingest span %s does not parent under tune's corpus.publish span (parent %q)",
					s.Span, s.Parent)
			}
		}
	}
	if res.Generations == 0 || res.WorkerShards == 0 || res.Ingests == 0 {
		return nil, fmt.Errorf("harness: trace %s is missing a tier: %d balance generation(s), %d worker shard(s), %d ingest(s)",
			res.TraceID, res.Generations, res.WorkerShards, res.Ingests)
	}

	t := &Table{
		ID: "TraceFleet",
		Title: fmt.Sprintf("unified observability: one tune run traced across pathlogd + %d shardworkerd daemons",
			len(workerURLs)),
		Header: []string{"process", "spans", "span names"},
	}
	for _, proc := range []string{"tune", "pathlogd", "shardworkerd"} {
		var parts []string
		for name, n := range names[proc] {
			parts = append(parts, fmt.Sprintf("%s×%d", name, n))
		}
		sort.Strings(parts)
		t.AddRow(proc, fmt.Sprintf("%d", perProc[proc]), strings.Join(parts, " "))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"single trace: all %d spans across 4 processes share trace %s; %d balance generation(s) link to %d worker shard(s) and %d intake ingest(s) by propagated span identity",
		len(spans), res.TraceID, res.Generations, res.WorkerShards, res.Ingests))
	t.Notes = append(t.Notes, fmt.Sprintf(
		"exposition lints clean: pathlogd /metrics (histogram %s) and shardworkerd /metrics (histogram %s) parse as Prometheus text 0.0.4",
		pdHist, wkHist))
	res.Table = t
	return res, nil
}

// startPathlogd launches the intake daemon and scrapes its startup line
// ("pathlogd: listening on <addr> ...") for the bound address.
func startPathlogd(ctx context.Context, bin string, args ...string) (*shardDaemon, string, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", fmt.Errorf("harness: start pathlogd: %w", err)
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
		fields := strings.Fields(line)
		if !ok || len(fields) < 4 || !strings.HasPrefix(line, "pathlogd: listening on ") {
			cmd.Process.Kill()
			cmd.Wait()
			return nil, "", fmt.Errorf("harness: unexpected pathlogd startup line %q", line)
		}
		url := "http://" + fields[3]
		return &shardDaemon{url: url, cmd: cmd}, url, nil
	case <-ctx.Done():
		cmd.Process.Kill()
		cmd.Wait()
		return nil, "", fmt.Errorf("harness: pathlogd printed no address: %w", ctx.Err())
	}
}

// scrapePromUntil GETs <url>/metrics in Prometheus text, lints it, and —
// when ready is set — retries briefly until the parsed families satisfy
// it (the intake pipeline is asynchronous; a scrape can race the last
// ingest). The final scrape body is appended to out under a header line.
func scrapePromUntil(cl *http.Client, url string, out *bytes.Buffer, ready func(map[string]obs.PromFamily) bool) (map[string]obs.PromFamily, error) {
	var fams map[string]obs.PromFamily
	var body []byte
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := cl.Get(url + "/metrics")
		if err != nil {
			return nil, err
		}
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			return nil, fmt.Errorf("scrape %s/metrics: content type %q, want Prometheus text", url, ct)
		}
		if fams, err = obs.ParsePrometheus(bytes.NewReader(body)); err != nil {
			return nil, fmt.Errorf("scrape %s/metrics: %w", url, err)
		}
		if ready == nil || ready(fams) || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if ready != nil && !ready(fams) {
		return nil, fmt.Errorf("scrape %s/metrics: readiness condition never satisfied:\n%s", url, body)
	}
	fmt.Fprintf(out, "# scrape %s/metrics\n", url)
	out.Write(body)
	return fams, nil
}

// histogramWithObservations returns the name of a histogram family with a
// nonzero _count, or an error when the exposition has none.
func histogramWithObservations(fams map[string]obs.PromFamily) (string, error) {
	var hists []string
	for name, fam := range fams {
		if fam.Type != "histogram" {
			continue
		}
		hists = append(hists, name)
		if fam.Samples[name+"_count"] > 0 {
			return name, nil
		}
	}
	sort.Strings(hists)
	return "", fmt.Errorf("no histogram with observations (histogram families: %v)", hists)
}

// readSpans parses one span-per-line JSONL trace file.
func readSpans(path string) ([]obs.SpanRecord, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var spans []obs.SpanRecord
	for i, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var s obs.SpanRecord
		if err := json.Unmarshal(line, &s); err != nil {
			return nil, nil, fmt.Errorf("harness: %s line %d: %w", path, i+1, err)
		}
		spans = append(spans, s)
	}
	return spans, data, nil
}
