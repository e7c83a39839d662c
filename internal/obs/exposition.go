package obs

import "net/http"

// ServeMetrics writes a registry snapshot as Prometheus text 0.0.4, the one
// /metrics exposition of every daemon.
func ServeMetrics(w http.ResponseWriter, snap Snapshot) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheus(w, snap)
}
