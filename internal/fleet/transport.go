package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"

	"pathlog/internal/obs"
)

// Transport is how a RemoteRunner reaches one worker — the seam
// fault-injection tests replace with a double that serves timeouts, torn
// JSON bodies, 5xx statuses and hung connections per request. PostShard
// returns the raw response body: decoding stays in the runner, so a torn
// body is diagnosed (and counted) in exactly one place regardless of
// transport.
type Transport interface {
	// PostShard POSTs an encoded ShardRequest to the worker's /shard
	// endpoint and returns the raw response body.
	PostShard(ctx context.Context, worker string, body []byte) ([]byte, error)
	// Healthz probes the worker's /healthz endpoint; nil means the worker
	// answered and is accepting shards.
	Healthz(ctx context.Context, worker string) error
}

// StatusError is a non-2xx reply from a worker daemon: the status code plus
// a bounded tail of the body, so a refusal's reason survives into the
// transcript without buffering an arbitrary error page.
type StatusError struct {
	Worker string
	Code   int
	Body   string
}

// Error implements error.
func (e *StatusError) Error() string {
	if e.Body == "" {
		return fmt.Sprintf("worker %s returned HTTP %d", e.Worker, e.Code)
	}
	return fmt.Sprintf("worker %s returned HTTP %d: %s", e.Worker, e.Code, e.Body)
}

// WorkerURL normalizes a worker address to a base URL: "host:port" gains
// the http scheme, trailing slashes are dropped, and an explicit http(s)
// URL passes through.
func WorkerURL(worker string) string {
	w := strings.TrimRight(worker, "/")
	if strings.HasPrefix(w, "http://") || strings.HasPrefix(w, "https://") {
		return w
	}
	return "http://" + w
}

// HTTPTransport is the production Transport: plain HTTP POSTs to
// shardworkerd daemons, with the response body size capped so a misbehaving
// worker cannot balloon the parent's memory.
type HTTPTransport struct {
	// Client overrides the HTTP client (nil = http.DefaultClient). Request
	// deadlines come from the caller's context, not the client.
	Client *http.Client
	// MaxResponseBytes caps a worker's response body
	// (0 = DefaultMaxResponseBytes).
	MaxResponseBytes int64
}

// DefaultMaxResponseBytes bounds a worker's response body when the
// transport does not set its own cap.
const DefaultMaxResponseBytes = 64 << 20

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

func (t *HTTPTransport) maxBytes() int64 {
	if t.MaxResponseBytes > 0 {
		return t.MaxResponseBytes
	}
	return DefaultMaxResponseBytes
}

// PostShard implements Transport.
func (t *HTTPTransport) PostShard(ctx context.Context, worker string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, WorkerURL(worker)+"/shard", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	obs.Inject(ctx, req.Header)
	res, err := t.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	max := t.maxBytes()
	data, err := io.ReadAll(io.LimitReader(res.Body, max+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > max {
		return nil, fmt.Errorf("worker %s response exceeds %d bytes — refusing oversized response", worker, max)
	}
	if res.StatusCode < 200 || res.StatusCode > 299 {
		return nil, &StatusError{Worker: worker, Code: res.StatusCode, Body: bodyTail(data)}
	}
	return data, nil
}

// Healthz implements Transport.
func (t *HTTPTransport) Healthz(ctx context.Context, worker string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, WorkerURL(worker)+"/healthz", nil)
	if err != nil {
		return err
	}
	res, err := t.client().Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(res.Body, 4096))
	if res.StatusCode < 200 || res.StatusCode > 299 {
		return &StatusError{Worker: worker, Code: res.StatusCode, Body: bodyTail(data)}
	}
	return nil
}

// bodyTail trims a response body for error messages.
func bodyTail(b []byte) string {
	const max = 256
	s := string(bytes.TrimSpace(b))
	if len(s) > max {
		s = "..." + s[len(s)-max:]
	}
	return s
}
