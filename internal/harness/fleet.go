package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pathlog"
	"pathlog/internal/apps"
	"pathlog/internal/corpus"
	"pathlog/internal/instrument"
)

// Fleet drives the intake service end to end over a real HTTP listener,
// the way a deployed fleet would: N concurrent simulated user sites ship a
// duplicate-heavy mix of stamped-only v3 reference envelopes (one heavy
// blowup report each plus a burst of identical noisy ones) to pathlogd's
// ingest surface, with one daemon restart in the middle of the run.
//
// The experiment checks the subsystem's four claims:
//
//   - Dedupe at ingest: the duplicate-heavy mix collapses to one stored
//     report per content signature plus counters (ratio >= 5:1).
//   - Crash-recovery parity: the mid-run restart replays the journal and
//     loses zero accepted reports — counters and the ingested corpus
//     identity match a no-restart control run of the same mix.
//   - Trust boundary: envelopes with an unknown fingerprint stamp or a
//     wrong program hash are refused by name in the journal.
//   - Self-update: after a CorpusBalance round over the ingested corpus
//     (dedupe counters as member frequency), GET /plan/<proghash> serves
//     the newly published generation — what a site would re-record under.
func (c Config) Fleet(ctx context.Context) (*Table, error) {
	root := c.FleetDir
	if root == "" {
		tmp, err := os.MkdirTemp("", "pathlog-fleet-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		root = tmp
	}
	storeDir := filepath.Join(root, "store")
	intakeDir := filepath.Join(root, "intake")
	controlDir := filepath.Join(root, "intake-control")

	sites := c.FleetSites
	if sites < 1 {
		sites = 8
	}
	perSite := c.FleetReportsPerSite
	if perSite < 2 {
		perSite = 8
	}

	// Developer site: uServer under a low-coverage dynamic plan, backed by
	// the plan store the intake service validates stamps against.
	blowup, err := apps.UServerScenario(3, 72)
	if err != nil {
		return nil, err
	}
	noisy, err := apps.UServerScenario(1, 72)
	if err != nil {
		return nil, err
	}
	sess := uServerSession(blowup, c.UServerAnalysisRunsLC,
		pathlog.WithStrategy(pathlog.Dynamic()),
		pathlog.WithReplayBudget(c.ReplayMaxRuns, c.ReplayBudget),
		pathlog.WithPlanStore(storeDir),
	)
	plan, err := sess.Plan(ctx)
	if err != nil {
		return nil, err
	}
	progHash := pathlog.ProgramHash(sess.Program())

	// User-site report bytes: the exact envelopes a site would POST.
	encode := func(user map[string][]byte, name string) (*pathlog.Recording, []byte, error) {
		rec, _, err := sess.RecordWith(ctx, plan, user)
		if err != nil {
			return nil, nil, err
		}
		if rec == nil {
			return nil, nil, fmt.Errorf("harness: user run %s did not crash", name)
		}
		data, err := rec.EncodeRef()
		return rec, data, err
	}
	blowupRec, blowupData, err := encode(blowup.UserBytes, "blowup")
	if err != nil {
		return nil, err
	}
	noisyRec, noisyData, err := encode(noisy.UserBytes, "noisy")
	if err != nil {
		return nil, err
	}

	st, err := pathlog.OpenPlanStore(storeDir)
	if err != nil {
		return nil, err
	}
	startIntake := func(dir string) (*pathlog.IntakeServer, string, chan error, error) {
		srv, err := pathlog.NewIntake(pathlog.IntakeConfig{Dir: dir, Store: st})
		if err != nil {
			return nil, "", nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, "", nil, err
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		return srv, "http://" + ln.Addr().String(), done, nil
	}

	srv, url, done, err := startIntake(intakeDir)
	if err != nil {
		return nil, err
	}
	var baseURL atomic.Value
	baseURL.Store(url)

	// A site POSTs until the daemon acknowledges the report (2xx): retries
	// ride out backpressure (429) and the mid-run restart window, so the
	// accepted totals are deterministic — which is exactly the parity the
	// journal must then preserve across the restart.
	client := &http.Client{Timeout: 10 * time.Second}
	postReport := func(data []byte) (int, error) {
		for attempt := 0; ; attempt++ {
			resp, err := client.Post(baseURL.Load().(string)+"/report", "application/json", bytes.NewReader(data))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusCreated, http.StatusOK:
					return resp.StatusCode, nil
				case http.StatusTooManyRequests:
					// throttled: retry below
				default:
					return resp.StatusCode, nil
				}
			}
			if attempt >= 600 {
				return 0, fmt.Errorf("harness: site gave up after %d attempts: %v", attempt, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	total := sites * perSite
	var wg sync.WaitGroup
	siteErrs := make(chan error, sites)
	for i := 0; i < sites; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < perSite; r++ {
				data := noisyData
				if r == 0 {
					data = blowupData
				}
				if _, err := postReport(data); err != nil {
					siteErrs <- err
					return
				}
			}
		}()
	}

	// Mid-run restart: once half the fleet's reports are in, take the
	// daemon down (graceful drain), bring a fresh process up over the same
	// intake directory, and swap the fleet's endpoint. Everything after
	// this point runs on journal-replayed state.
	for srv.Metrics().Accepted < int64(total/2) {
		time.Sleep(2 * time.Millisecond)
	}
	if err := srv.Shutdown(ctx); err != nil {
		return nil, err
	}
	if err := <-done; err != nil {
		return nil, err
	}
	srv2, url2, done2, err := startIntake(intakeDir)
	if err != nil {
		return nil, err
	}
	defer func() {
		srv2.Shutdown(context.Background())
		<-done2
	}()
	baseURL.Store(url2)

	wg.Wait()
	close(siteErrs)
	for err := range siteErrs {
		return nil, err
	}
	parity := srv2.Metrics()

	// Control: the same mix into a fresh intake directory, no restart.
	srvC, urlC, doneC, err := startIntake(controlDir)
	if err != nil {
		return nil, err
	}
	baseURL.Store(urlC)
	for i := 0; i < sites; i++ {
		for r := 0; r < perSite; r++ {
			data := noisyData
			if r == 0 {
				data = blowupData
			}
			if _, err := postReport(data); err != nil {
				return nil, err
			}
		}
	}
	control := srvC.Metrics()
	controlCorpus, _, err := pathlog.IngestIntake(controlDir, progHash, pathlog.CorpusIngestOptions{})
	if err != nil {
		return nil, err
	}
	if err := srvC.Shutdown(ctx); err != nil {
		return nil, err
	}
	<-doneC
	baseURL.Store(url2)

	// Trust boundary: an unknown stamp and a wrong program hash, refused by
	// name in the journal.
	unknownFP := strings.Repeat("00ff", 8)
	wrongProg := strings.Repeat("ee", 16)
	unknownRec := *blowupRec
	unknownRec.Fingerprint = unknownFP
	unknownData, err := unknownRec.EncodeRef()
	if err != nil {
		return nil, err
	}
	wrongRec := *blowupRec
	wrongRec.ProgHash = wrongProg
	wrongData, err := wrongRec.EncodeRef()
	if err != nil {
		return nil, err
	}
	stUnknown, err := postReport(unknownData)
	if err != nil {
		return nil, err
	}
	stWrong, err := postReport(wrongData)
	if err != nil {
		return nil, err
	}
	journalBytes, err := os.ReadFile(filepath.Join(intakeDir, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	journal := string(journalBytes)
	refusedNamed := stUnknown == http.StatusForbidden && stWrong == http.StatusForbidden &&
		strings.Contains(journal, unknownFP) && strings.Contains(journal, wrongProg) &&
		strings.Contains(journal, "unknown-stamp") && strings.Contains(journal, "wrong-program")

	// Close the loop: ingest the intake bucket (dedupe counters as member
	// frequency) and run the corpus balance; the published generation must
	// then be what the plan endpoint serves back to the fleet.
	crp, info, err := pathlog.IngestIntake(intakeDir, progHash, pathlog.CorpusIngestOptions{})
	if err != nil {
		return nil, err
	}
	attach := func(rec *pathlog.Recording, user map[string][]byte) error {
		sig := corpus.Signature(rec)
		return crp.AttachInput(filepath.Join(intakeDir, "reports", progHash, plan.Fingerprint(), sig+".report"), user)
	}
	if err := attach(blowupRec, blowup.UserBytes); err != nil {
		return nil, err
	}
	if err := attach(noisyRec, noisy.UserBytes); err != nil {
		return nil, err
	}

	target := c.CorpusTargetRuns
	if target <= 0 {
		target = c.AdaptiveTargetRuns
	}
	shards := c.CorpusShards
	if shards < 1 {
		shards = 1
	}

	t := &Table{
		ID: "Fleet",
		Title: fmt.Sprintf("fleet intake service: %d sites POST %d reports each over HTTP, one mid-run daemon restart",
			sites, perSite),
		Header: []string{"gen", "strategy", "locs", "mean bits", "mean runs", "max runs", "repro", "promoted", "demoted"},
	}
	tr, err := sess.CorpusBalance(ctx, crp, pathlog.BalanceOptions{
		TargetReplayRuns: target,
		MaxGenerations:   c.AdaptiveMaxGenerations,
		CorpusOptions:    pathlog.CorpusOptions{Shards: shards},
	})
	if err != nil {
		return nil, err
	}
	addBalanceRows(t, tr)

	// Self-update: what the live daemon now serves for this program.
	resp, err := client.Get(url2 + "/plan/" + progHash)
	if err != nil {
		return nil, err
	}
	servedBytes, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	served, err := instrument.DecodePlan(servedBytes)
	if err != nil {
		return nil, fmt.Errorf("harness: GET /plan/%s: %w", progHash, err)
	}
	published, err := sess.PublishedPlan()
	if err != nil {
		return nil, err
	}

	// Metrics artifact: the final snapshot CI uploads next to the journal.
	final := srv2.Metrics()
	if c.FleetMetricsOut != "" {
		data, err := json.MarshalIndent(final, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(c.FleetMetricsOut, data, 0o644); err != nil {
			return nil, err
		}
	}

	status := "fleet balance: NOT converged"
	if tr.Converged {
		status = "fleet balance: converged"
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%s: %s", status, tr.Reason),
		fmt.Sprintf("intake bucket: plan %s generation %d, %d stored standing for %d accepted; shards: %d in-process",
			info.Fingerprint, info.Generation, info.Stored, info.Accepted, shards))

	ratio := 0
	if parity.Stored > 0 {
		ratio = int(parity.Accepted / parity.Stored)
	}
	if parity.Accepted >= int64(total) && ratio >= 5 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"fleet intake: dedupe ratio %d:1 — %d accepted reports stored as %d members (%d deduped at ingest)",
			ratio, parity.Accepted, parity.Stored, parity.Deduped))
	} else {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"fleet intake: dedupe NOT demonstrated (accepted %d of %d, stored %d)", parity.Accepted, total, parity.Stored))
	}
	// HTTP delivery over a restart is at-least-once: a request the daemon
	// journaled whose ack died with the draining connection is retried by
	// the site and absorbed as one more dedupe. So the loss-free invariants
	// are: nothing acknowledged is missing (accepted covers every site
	// send), the stored members and their signatures are exactly the
	// control's, and the books balance (accepted = stored + deduped).
	// Retransmissions only ever raise the duplicate counter.
	retrans := parity.Accepted - int64(total)
	lossFree := retrans >= 0 &&
		parity.Stored == control.Stored &&
		parity.Accepted == parity.Stored+parity.Deduped &&
		sigSet(crp) == sigSet(controlCorpus)
	switch {
	case lossFree && retrans == 0:
		t.Notes = append(t.Notes, fmt.Sprintf(
			"restart parity: mid-run restart lost zero accepted reports — %d accepted / %d stored / %d deduped and corpus identity %s match the no-restart control exactly",
			parity.Accepted, parity.Stored, parity.Deduped, crp.Identity()))
	case lossFree:
		t.Notes = append(t.Notes, fmt.Sprintf(
			"restart parity: mid-run restart lost zero accepted reports — %d stored members and signatures match the no-restart control; %d retransmission(s) whose ack died in the restart window were absorbed as duplicates (%d accepted = %d stored + %d deduped)",
			parity.Stored, retrans, parity.Accepted, parity.Stored, parity.Deduped))
	default:
		t.Notes = append(t.Notes, fmt.Sprintf(
			"restart parity: FAILED — restarted %d/%d/%d vs control %d/%d/%d, signatures %q vs %q",
			parity.Accepted, parity.Stored, parity.Deduped,
			control.Accepted, control.Stored, control.Deduped, sigSet(crp), sigSet(controlCorpus)))
	}
	if refusedNamed {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"refused by name: unknown stamp %s and wrong program %s answered 403 and journaled with their identities",
			unknownFP, wrongProg))
	} else {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"refused by name: NOT demonstrated (unknown %d, wrong %d)", stUnknown, stWrong))
	}
	if served.Fingerprint() == published.Fingerprint() && served.Generation > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"plan endpoint serves generation %d (fingerprint %s) after the corpus balance round — sites self-update to it",
			served.Generation, served.Fingerprint()))
	} else {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"plan endpoint: NOT serving the published head (served %s gen %d, published %s gen %d)",
			served.Fingerprint(), served.Generation, published.Fingerprint(), published.Generation))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"daemon metrics: accepted %d stored %d deduped %d refused %d throttled %d, journal %d record(s) / %d byte(s)",
		final.Accepted, final.Stored, final.Deduped, final.Refused, final.Throttled,
		final.JournalRecords, final.JournalBytes))
	return t, nil
}

// sigSet renders a corpus's member signatures in their canonical order —
// the count-insensitive identity restart parity is judged on.
func sigSet(c *pathlog.Corpus) string {
	sigs := make([]string, len(c.Reports))
	for i, rep := range c.Reports {
		sigs[i] = rep.Signature
	}
	return strings.Join(sigs, ",")
}
