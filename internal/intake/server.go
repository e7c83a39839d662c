package intake

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"pathlog/internal/corpus"
	"pathlog/internal/obs"
	"pathlog/internal/replay"
	"pathlog/internal/store"
)

// Defaults for Config fields left zero.
const (
	DefaultQueueSize = 64
	DefaultWorkers   = 2
	DefaultMaxBody   = 1 << 20
)

// Config shapes an intake server.
type Config struct {
	// Dir is the intake directory: the journal and the stored report
	// buckets live under it.
	Dir string
	// Store is the plan store the ingest trust boundary validates stamps
	// against and GET /plan serves chain heads from.
	Store *store.Store
	// QueueSize bounds the ingest queue; a full queue answers 429 +
	// Retry-After instead of growing without bound (zero selects
	// DefaultQueueSize).
	QueueSize int
	// Workers is the number of ingest workers draining the queue (zero
	// selects DefaultWorkers).
	Workers int
	// MaxBody caps the POSTed envelope size in bytes (zero selects
	// DefaultMaxBody).
	MaxBody int64
	// RateBurst and RatePerSecond configure the per-signature token
	// bucket: each signature may burst RateBurst reports, refilled at
	// RatePerSecond. RateBurst zero disables rate limiting. Throttled
	// reports are counted but neither stored nor journaled.
	RateBurst     int
	RatePerSecond float64
	// Now overrides the clock (tests and deterministic experiments);
	// nil selects time.Now.
	Now func() time.Time
	// Obs supplies the observability substrate: the registry the ingest
	// counters and histograms live in (nil creates a private one, so GET
	// /metrics always works) and the tracer POST /report spans are
	// recorded to (nil records nothing but still propagates IDs).
	Obs *obs.Observer
	// Pprof, when set, mounts net/http/pprof under /debug/pprof — opt-in
	// because the profiling surface has no business on an internet-facing
	// ingest port by default.
	Pprof bool
}

// Metrics is the counter snapshot GET /metrics serves.
type Metrics struct {
	// Accepted counts reports taken in: Stored + Deduped.
	Accepted int64 `json:"accepted"`
	// Stored counts unique signatures with a report file on disk.
	Stored int64 `json:"stored"`
	// Deduped counts accepted reports that were duplicates of a stored one.
	Deduped int64 `json:"deduped"`
	// Refused counts reports turned away at the trust boundary (malformed,
	// embedded plan, unknown stamp, wrong program).
	Refused int64 `json:"refused"`
	// Throttled counts requests shed by backpressure or rate limiting.
	Throttled      int64           `json:"throttled"`
	QueueDepth     int             `json:"queue_depth"`
	QueueCapacity  int             `json:"queue_capacity"`
	JournalRecords int64           `json:"journal_records"`
	JournalBytes   int64           `json:"journal_bytes"`
	Buckets        []BucketMetrics `json:"buckets,omitempty"`
}

// BucketMetrics is one (program hash, plan fingerprint, generation)
// bucket's row in the metrics snapshot.
type BucketMetrics struct {
	ProgHash    string `json:"prog_hash"`
	Fingerprint string `json:"plan_fingerprint"`
	Generation  int    `json:"generation"`
	Stored      int64  `json:"stored"`
	Accepted    int64  `json:"accepted"`
}

// Server is an intake service instance. Create one with New (which replays
// the journal), expose Handler over any listener or call Serve, and stop
// it with Shutdown — Shutdown drains in-flight requests before closing the
// journal, so a SIGTERM loses nothing.
type Server struct {
	cfg   Config
	queue chan task
	wg    sync.WaitGroup

	mu      sync.Mutex
	journal *journal
	seen    map[string]*sigState
	buckets map[bucketKey]*bucketState
	limits  map[string]*tokenBucket

	// Counters live in the obs registry (every mutation happens under
	// s.mu, so a snapshot taken under s.mu is a single consistent pass);
	// the Metrics struct is reconstructed from them on demand.
	reg        *obs.Registry
	tracer     *obs.Tracer
	cAccepted  *obs.Counter
	cStored    *obs.Counter
	cDeduped   *obs.Counter
	cRefused   *obs.Counter
	cThrottled *obs.Counter
	gQueue     *obs.Gauge
	gQueueCap  *obs.Gauge
	gJournalN  *obs.Gauge
	gJournalB  *obs.Gauge
	hIngestNS  *obs.Histogram

	httpMu   sync.Mutex
	httpSrv  *http.Server
	shutOnce sync.Once
	shutErr  error
}

type task struct {
	data  []byte
	reply chan response
}

type response struct {
	status     int
	body       string
	retryAfter int // seconds; set on 429
}

type bucketKey struct {
	prog string
	fp   string
	gen  int
}

type sigState struct {
	count  int64
	bucket bucketKey
}

type bucketState struct {
	stored   int64
	accepted int64
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// New opens (creating if needed) the intake directory, replays the journal
// to rebuild the dedupe table and counters, and starts the ingest workers.
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("intake: no directory configured")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("intake: no plan store configured")
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = DefaultQueueSize
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "reports"), 0o755); err != nil {
		return nil, fmt.Errorf("intake: open %s: %w", cfg.Dir, err)
	}
	j, records, err := openJournal(filepath.Join(cfg.Dir, JournalName))
	if err != nil {
		return nil, err
	}
	reg := cfg.Obs.Registry()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:        cfg,
		queue:      make(chan task, cfg.QueueSize),
		journal:    j,
		seen:       make(map[string]*sigState),
		buckets:    make(map[bucketKey]*bucketState),
		limits:     make(map[string]*tokenBucket),
		reg:        reg,
		tracer:     cfg.Obs.Tracer(),
		cAccepted:  reg.Counter("pathlog_intake_accepted_total"),
		cStored:    reg.Counter("pathlog_intake_stored_total"),
		cDeduped:   reg.Counter("pathlog_intake_deduped_total"),
		cRefused:   reg.Counter("pathlog_intake_refused_total"),
		cThrottled: reg.Counter("pathlog_intake_throttled_total"),
		gQueue:     reg.Gauge("pathlog_intake_queue_depth"),
		gQueueCap:  reg.Gauge("pathlog_intake_queue_capacity"),
		gJournalN:  reg.Gauge("pathlog_intake_journal_records"),
		gJournalB:  reg.Gauge("pathlog_intake_journal_bytes"),
		hIngestNS:  reg.Histogram("pathlog_intake_ingest_ns", obs.ExpBuckets(1000, 4, 14)),
	}
	s.gQueueCap.Set(int64(cfg.QueueSize))
	for _, rec := range records {
		s.replayRecord(rec)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// replayRecord applies one journal record to the in-memory state, exactly
// as the live ingest path would have: this is what makes restart counters
// match a run that never crashed.
func (s *Server) replayRecord(rec Record) {
	switch rec.Event {
	case EventAccepted:
		key := bucketKey{prog: rec.Prog, fp: rec.Plan, gen: rec.Gen}
		s.seen[rec.Sig] = &sigState{count: 1, bucket: key}
		s.bucket(key).stored++
		s.bucket(key).accepted++
		s.cStored.Inc()
		s.cAccepted.Inc()
	case EventDuplicate:
		if st := s.seen[rec.Sig]; st != nil {
			st.count++
			s.bucket(st.bucket).accepted++
		}
		s.cDeduped.Inc()
		s.cAccepted.Inc()
	case EventRefused:
		s.cRefused.Inc()
	}
}

func (s *Server) bucket(key bucketKey) *bucketState {
	b := s.buckets[key]
	if b == nil {
		b = &bucketState{}
		s.buckets[key] = b
	}
	return b
}

// Handler returns the service's HTTP surface: POST /report, GET
// /plan/{proghash}, GET /metrics, GET /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /report", s.handleReport)
	mux.HandleFunc("GET /plan/{proghash}", s.handlePlan)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	if s.cfg.Pprof {
		obs.MountPprof(mux)
	}
	return mux
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	// One ingest span per report, parented under whatever span the site
	// propagated in the trace header — this is the trust boundary the
	// span tree crosses between tune and pathlogd.
	start := time.Now()
	ctx := obs.Extract(r.Context(), r.Header)
	_, span := s.tracer.StartSpan(ctx, "intake.ingest")
	defer func() {
		s.hIngestNS.Observe(float64(time.Since(start).Nanoseconds()))
		span.End()
	}()
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err != nil {
		span.SetAttr("outcome", "bad-body")
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("report body exceeds %d bytes", s.cfg.MaxBody), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "read report body: "+err.Error(), http.StatusBadRequest)
		return
	}
	t := task{data: data, reply: make(chan response, 1)}
	select {
	case s.queue <- t:
	default:
		// Bounded-queue backpressure: shed the request now rather than
		// queueing without bound; the site retries after a beat.
		s.mu.Lock()
		s.cThrottled.Inc()
		s.mu.Unlock()
		span.SetAttr("outcome", "queue-full")
		w.Header().Set("Retry-After", "1")
		http.Error(w, "ingest queue full", http.StatusTooManyRequests)
		return
	}
	resp := <-t.reply
	span.SetAttr("status", strconv.Itoa(resp.status))
	if resp.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(resp.retryAfter))
	}
	w.WriteHeader(resp.status)
	io.WriteString(w, resp.body)
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	progHash := r.PathValue("proghash")
	plan, err := s.cfg.Store.ChainHead(progHash)
	if errors.Is(err, store.ErrPlanNotFound) {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	data, err := plan.Encode()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleMetrics serves the Prometheus text format, rendered from one
// snapshot taken under s.mu — every counter mutation happens under that
// lock, so concurrent scrapes can never observe a torn set where, say,
// accepted has advanced but stored+deduped has not.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	obs.ServeMetrics(w, s.snapshot())
}

// snapshot freezes gauge state and captures the registry in one pass
// under s.mu (the lock every counter mutation holds).
func (s *Server) snapshot() obs.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	records, bytes := s.journal.stats()
	s.gQueue.Set(int64(len(s.queue)))
	s.gJournalN.Set(records)
	s.gJournalB.Set(bytes)
	return s.reg.Snapshot()
}

// Metrics snapshots the counters, queue depth and per-bucket tallies.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	records, bytes := s.journal.stats()
	m := Metrics{
		Accepted:       s.cAccepted.Value(),
		Stored:         s.cStored.Value(),
		Deduped:        s.cDeduped.Value(),
		Refused:        s.cRefused.Value(),
		Throttled:      s.cThrottled.Value(),
		QueueDepth:     len(s.queue),
		QueueCapacity:  s.cfg.QueueSize,
		JournalRecords: records,
		JournalBytes:   bytes,
	}
	for key, b := range s.buckets {
		m.Buckets = append(m.Buckets, BucketMetrics{
			ProgHash:    key.prog,
			Fingerprint: key.fp,
			Generation:  key.gen,
			Stored:      b.stored,
			Accepted:    b.accepted,
		})
	}
	sort.Slice(m.Buckets, func(i, j int) bool {
		a, b := m.Buckets[i], m.Buckets[j]
		if a.ProgHash != b.ProgHash {
			return a.ProgHash < b.ProgHash
		}
		if a.Generation != b.Generation {
			return a.Generation < b.Generation
		}
		return a.Fingerprint < b.Fingerprint
	})
	return m
}

func (s *Server) worker() {
	defer s.wg.Done()
	for t := range s.queue {
		t.reply <- s.process(t.data)
	}
}

// process runs one report through the ingest pipeline: decode, trust
// boundary, rate limit, dedupe, store, journal.
func (s *Server) process(data []byte) response {
	rec, err := replay.DecodeRecording(data)
	if err != nil {
		return s.refuse("", bucketKey{}, "malformed envelope: "+err.Error(), http.StatusBadRequest)
	}
	if rec.Plan != nil {
		// Version 1/2 envelopes always embed their plan; the intake path is
		// stamped-only by design (the plan's identity is the store's to
		// resolve, not the report's to assert).
		return s.refuse("", bucketKey{}, "embedded-plan envelope (intake accepts stamped-only version-3 references)", http.StatusForbidden)
	}
	if rec.ProgHash == "" {
		return s.refuse("", bucketKey{}, "envelope carries no program hash", http.StatusForbidden)
	}
	sig := corpus.Signature(rec)
	if retry, ok := s.allow(sig); !ok {
		s.mu.Lock()
		s.cThrottled.Inc()
		s.mu.Unlock()
		return response{
			status:     http.StatusTooManyRequests,
			body:       fmt.Sprintf("signature %s rate limited\n", sig),
			retryAfter: retry,
		}
	}
	plan, err := s.cfg.Store.GetPlan(rec.Fingerprint)
	if errors.Is(err, store.ErrPlanNotFound) {
		return s.refuse(sig, bucketKey{prog: rec.ProgHash, fp: rec.Fingerprint},
			fmt.Sprintf("unknown-stamp: fingerprint %s matches no retained plan", rec.Fingerprint), http.StatusForbidden)
	}
	if err != nil {
		return s.refuse(sig, bucketKey{prog: rec.ProgHash, fp: rec.Fingerprint},
			"resolve stamp: "+err.Error(), http.StatusForbidden)
	}
	if rec.ProgHash != plan.ProgHash {
		return s.refuse(sig, bucketKey{prog: rec.ProgHash, fp: rec.Fingerprint},
			fmt.Sprintf("wrong-program: envelope names program %s, plan %s is retained for %s",
				rec.ProgHash, rec.Fingerprint, plan.ProgHash), http.StatusForbidden)
	}
	key := bucketKey{prog: plan.ProgHash, fp: rec.Fingerprint, gen: plan.Generation}
	now := s.cfg.Now().Unix()

	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.seen[sig]; st != nil {
		st.count++
		s.bucket(st.bucket).accepted++
		s.cDeduped.Inc()
		s.cAccepted.Inc()
		if err := s.journal.append(Record{
			TimeUnix: now, Event: EventDuplicate, Sig: sig,
			Prog: key.prog, Plan: key.fp, Gen: key.gen,
		}); err != nil {
			return response{status: http.StatusInternalServerError, body: err.Error() + "\n"}
		}
		return response{status: http.StatusOK, body: fmt.Sprintf("duplicate of %s (count %d)\n", sig, st.count)}
	}
	// New signature: store the verbatim POSTed bytes first, journal second.
	// If a crash lands between the two, the file exists with no accepted
	// record — the signature stays unseen, and a retry rewrites the same
	// bytes to the same name, so recovery is idempotent.
	path := s.reportPath(key, sig)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return response{status: http.StatusInternalServerError, body: err.Error() + "\n"}
	}
	if err := writeFileAtomic(path, data); err != nil {
		return response{status: http.StatusInternalServerError, body: err.Error() + "\n"}
	}
	s.seen[sig] = &sigState{count: 1, bucket: key}
	s.bucket(key).stored++
	s.bucket(key).accepted++
	s.cStored.Inc()
	s.cAccepted.Inc()
	if err := s.journal.append(Record{
		TimeUnix: now, Event: EventAccepted, Sig: sig,
		Prog: key.prog, Plan: key.fp, Gen: key.gen,
	}); err != nil {
		return response{status: http.StatusInternalServerError, body: err.Error() + "\n"}
	}
	return response{status: http.StatusCreated, body: fmt.Sprintf("accepted %s\n", sig)}
}

// refuse journals and counts a trust-boundary refusal, naming the reason.
func (s *Server) refuse(sig string, key bucketKey, reason string, status int) response {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cRefused.Inc()
	if err := s.journal.append(Record{
		TimeUnix: s.cfg.Now().Unix(), Event: EventRefused, Sig: sig,
		Prog: key.prog, Plan: key.fp, Reason: reason,
	}); err != nil {
		return response{status: http.StatusInternalServerError, body: err.Error() + "\n"}
	}
	return response{status: status, body: "refused: " + reason + "\n"}
}

// allow takes one token from the signature's bucket, reporting a
// Retry-After hint when the bucket is dry. RateBurst zero disables
// limiting.
func (s *Server) allow(sig string) (retryAfter int, ok bool) {
	if s.cfg.RateBurst <= 0 {
		return 0, true
	}
	now := s.cfg.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	tb := s.limits[sig]
	if tb == nil {
		tb = &tokenBucket{tokens: float64(s.cfg.RateBurst), last: now}
		s.limits[sig] = tb
	}
	if s.cfg.RatePerSecond > 0 {
		tb.tokens += now.Sub(tb.last).Seconds() * s.cfg.RatePerSecond
		if tb.tokens > float64(s.cfg.RateBurst) {
			tb.tokens = float64(s.cfg.RateBurst)
		}
	}
	tb.last = now
	if tb.tokens >= 1 {
		tb.tokens--
		return 0, true
	}
	if s.cfg.RatePerSecond <= 0 {
		return 1, false
	}
	return int(math.Ceil((1 - tb.tokens) / s.cfg.RatePerSecond)), false
}

func (s *Server) reportPath(key bucketKey, sig string) string {
	return filepath.Join(s.cfg.Dir, "reports", key.prog, key.fp, sig+".report")
}

// writeFileAtomic writes data next to path and renames it into place
// (mirroring the plan store's crash-safety discipline).
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Serve runs the service on ln until Shutdown. It returns nil after a
// clean Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       time.Minute,
	}
	s.httpMu.Lock()
	s.httpSrv = srv
	s.httpMu.Unlock()
	err := srv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the service: stop accepting requests, let in-flight
// handlers and queued reports finish, then close the journal. Safe to call
// once whether or not Serve was used; this is the SIGTERM path, and a
// drained shutdown journals every report that was ever acknowledged.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		s.httpMu.Lock()
		srv := s.httpSrv
		s.httpMu.Unlock()
		if srv != nil {
			s.shutErr = srv.Shutdown(ctx)
		}
		close(s.queue)
		s.wg.Wait()
		if err := s.journal.close(); s.shutErr == nil {
			s.shutErr = err
		}
	})
	return s.shutErr
}
