package intake

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pathlog/internal/obs"
)

// TestMetricsExposition pins GET /metrics: Prometheus text, lintable, with
// the ingest histogram.
func TestMetricsExposition(t *testing.T) {
	clock := newFakeClock()
	s, _ := newTestServer(t, t.TempDir(), clock)
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	plan := testPlan()
	post(t, ts.URL, encodeRef(t, testRec(plan, 0b101, 10)))
	post(t, ts.URL, encodeRef(t, testRec(plan, 0b101, 10)))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("default content type = %q, want text/plain prom format", ct)
	}
	fams, err := obs.ParsePrometheus(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("prom lint failed:\n%s\n%v", body, err)
	}
	if fams["pathlog_intake_accepted_total"].Samples["pathlog_intake_accepted_total"] != 2 {
		t.Fatalf("accepted counter wrong:\n%s", body)
	}
	hist, ok := fams["pathlog_intake_ingest_ns"]
	if !ok || hist.Type != "histogram" {
		t.Fatalf("ingest histogram missing from exposition:\n%s", body)
	}
	if hist.Samples["pathlog_intake_ingest_ns_count"] != 2 {
		t.Fatalf("ingest histogram count wrong: %+v", hist.Samples)
	}
}

// TestMetricsIgnoresAcceptJSON pins that Prometheus text is the only
// exposition: a scrape asking for JSON gets the text format all the same.
func TestMetricsIgnoresAcceptJSON(t *testing.T) {
	s, _ := newTestServer(t, t.TempDir(), newFakeClock())
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post(t, ts.URL, encodeRef(t, testRec(testPlan(), 0b101, 10)))

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Accept json content type = %q, want text/plain; version=0.0.4", ct)
	}
	fams, err := obs.ParsePrometheus(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("prom lint failed:\n%s\n%v", body, err)
	}
	if fams["pathlog_intake_accepted_total"].Samples["pathlog_intake_accepted_total"] != 1 {
		t.Fatalf("accepted counter wrong:\n%s", body)
	}
}

// TestMetricsScrapeWhileIngesting hammers /report from several writers
// while scraping /metrics and reading the in-process Metrics snapshot
// concurrently. Every scrape must be internally consistent — accepted ==
// stored + deduped can only hold on every sample if the snapshot is taken
// in one locked pass — and the run doubles as the -race gate for the
// scrape path.
func TestMetricsScrapeWhileIngesting(t *testing.T) {
	clock := newFakeClock()
	s, _ := newTestServer(t, t.TempDir(), clock)
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	plan := testPlan()
	// Pre-store each signature so every concurrent POST is a pure
	// counter increment (accepted+deduped together under one lock): any
	// torn snapshot then breaks the books exactly.
	bodies := make([][]byte, 4)
	for i := range bodies {
		bodies[i] = encodeRef(t, testRec(plan, byte(i+1), 10+i))
		post(t, ts.URL, bodies[i])
	}

	const writers, perWriter, scrapes = 4, 50, 40
	var wg sync.WaitGroup
	errs := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				resp := post(t, ts.URL, bodies[w])
				if resp.StatusCode != http.StatusOK {
					errs <- errorfOnce("writer %d: status %d", w, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() { // prom scraper
		defer wg.Done()
		for i := 0; i < scrapes; i++ {
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				errs <- err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			fams, err := obs.ParsePrometheus(strings.NewReader(string(body)))
			if err != nil {
				errs <- err
				return
			}
			acc := fams["pathlog_intake_accepted_total"].Samples["pathlog_intake_accepted_total"]
			sto := fams["pathlog_intake_stored_total"].Samples["pathlog_intake_stored_total"]
			ded := fams["pathlog_intake_deduped_total"].Samples["pathlog_intake_deduped_total"]
			if acc != sto+ded {
				errs <- errorfOnce("torn prom scrape: accepted %v != stored %v + deduped %v", acc, sto, ded)
				return
			}
		}
	}()
	go func() { // in-process reader
		defer wg.Done()
		for i := 0; i < scrapes; i++ {
			m := s.Metrics()
			if m.Accepted != m.Stored+m.Deduped {
				errs <- errorfOnce("torn Metrics snapshot: %+v", m)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	final := s.Metrics()
	want := int64(len(bodies) + writers*perWriter)
	if final.Accepted != want || final.Stored != int64(len(bodies)) {
		t.Fatalf("final: accepted %d stored %d, want %d/%d", final.Accepted, final.Stored, want, len(bodies))
	}
}

func errorfOnce(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}
