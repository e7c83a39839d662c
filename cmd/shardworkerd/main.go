// Command shardworkerd serves the shard worker protocol over HTTP — the
// one out-of-process shard transport, remote or on loopback. It wraps a
// deliberately dumb worker core (fleet.WorkerCore: no plan store, no
// weights, no refinement decisions) in a daemon so a fleet.RemoteRunner
// can POST shards to a pool of hosts:
//
//	POST /shard   — one JSON ShardRequest in, one JSON ShardResponse out.
//	                Reports arrive only as inline version-2 envelopes; the
//	                daemon never opens a path a request names. A
//	                propagated X-Pathlog-Trace header parents this
//	                daemon's worker.shard span under the dispatcher's.
//	GET  /healthz — liveness plus the inflight/served counters the
//	                runner's probes and the chaos harness read.
//	GET  /metrics — shard counters and the shard-execution histogram,
//	                in Prometheus text.
//
// -trace appends finished spans as JSONL; -pprof mounts net/http/pprof.
//
// A shard whose connection drops is abandoned mid-search: the request
// context cancels the replay engine, so a parent that cancelled a stolen
// duplicate does not leave this daemon burning CPU on the loser.
//
// Usage:
//
//	shardworkerd -listen 127.0.0.1:0
//
// The daemon prints "listening on http://<addr>" on startup (the actual
// port when :0 was asked for) and drains inflight shards on SIGTERM.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"pathlog/internal/corpus"
	"pathlog/internal/fleet"
	"pathlog/internal/obs"
)

// server is the daemon's handler state: the shared worker core plus the
// counters /healthz exposes.
type server struct {
	core     fleet.WorkerCore
	obs      *obs.Observer
	delay    time.Duration
	maxBody  int64
	inflight atomic.Int64
	served   atomic.Int64
}

// handleShard serves POST /shard.
func (s *server) handleShard(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	defer s.served.Add(1)
	var req corpus.ShardRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeResponse(w, http.StatusBadRequest, corpus.ShardResponse{
			Version: corpus.ProtocolVersion,
			Error:   fmt.Sprintf("decode request: %v", err),
		})
		return
	}
	// The chaos knob: hold the shard before replaying so tests get a wide,
	// observable window (inflight is already up) to kill or steal against.
	if s.delay > 0 {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(s.delay):
		}
	}
	// A propagated trace header parents this daemon's worker.shard span
	// under the dispatching runner's span, across the process boundary.
	ctx := obs.Extract(r.Context(), r.Header)
	resp := s.core.Execute(ctx, req)
	writeResponse(w, http.StatusOK, resp)
}

// handleMetrics serves GET /metrics: the worker core's registry in
// Prometheus text.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	obs.ServeMetrics(w, s.obs.Reg.Snapshot())
}

// handleHealthz serves GET /healthz.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"ok":true,"protocol":%d,"inflight":%d,"served":%d}`+"\n",
		corpus.ProtocolVersion, s.inflight.Load(), s.served.Load())
}

// writeResponse sends one ShardResponse as JSON.
func writeResponse(w http.ResponseWriter, status int, resp corpus.ShardResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		fmt.Fprintln(os.Stderr, "shardworkerd: encode response:", err)
	}
}

func main() {
	var (
		listen = flag.String("listen", "127.0.0.1:0",
			"address to serve on (port 0 picks a free port; the chosen address is printed)")
		delay = flag.Duration("delay", 0,
			"hold each shard this long before replaying (widens the chaos/steal window in tests)")
		maxBody = flag.Int64("max-body", 256<<20,
			"largest accepted request body in bytes")
		drain = flag.Duration("drain-timeout", 10*time.Second,
			"how long SIGTERM waits for inflight shards before closing connections")
		trace = flag.String("trace", "",
			"append finished spans as JSONL to this file (empty = tracing off)")
		pprofOn = flag.Bool("pprof", false,
			"mount net/http/pprof under /debug/pprof")
	)
	flag.Parse()

	observer := &obs.Observer{Reg: obs.NewRegistry()}
	if *trace != "" {
		f, err := os.OpenFile(*trace, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "shardworkerd:", err)
			os.Exit(1)
		}
		defer f.Close()
		observer.Trace = obs.NewTracer(f, "shardworkerd")
	}
	srv := &server{obs: observer, delay: *delay, maxBody: *maxBody}
	srv.core.Obs = observer
	srv.core.Register()
	mux := http.NewServeMux()
	mux.HandleFunc("/shard", srv.handleShard)
	mux.HandleFunc("/healthz", srv.handleHealthz)
	mux.HandleFunc("/metrics", srv.handleMetrics)
	if *pprofOn {
		obs.MountPprof(mux)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shardworkerd:", err)
		os.Exit(1)
	}
	// The parent (or a test) scrapes this line for the picked port.
	fmt.Printf("listening on http://%s\n", ln.Addr())

	httpSrv := &http.Server{Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		done <- httpSrv.Shutdown(sctx)
	}()
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "shardworkerd:", err)
		os.Exit(1)
	}
	if err := <-done; err != nil {
		fmt.Fprintln(os.Stderr, "shardworkerd: drain:", err)
		os.Exit(1)
	}
}
