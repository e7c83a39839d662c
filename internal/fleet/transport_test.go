package fleet

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHTTPTransportRefusesOversizedResponse: a worker whose reply runs past
// the response cap is refused by name instead of buffered without bound.
func TestHTTPTransportRefusesOversizedResponse(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(strings.Repeat("x", 200)))
	}))
	defer srv.Close()
	tr := &HTTPTransport{MaxResponseBytes: 64}
	_, err := tr.PostShard(testCtx(t), srv.URL, []byte(`{}`))
	if err == nil {
		t.Fatal("200-byte response accepted under a 64-byte cap")
	}
	for _, want := range []string{srv.URL, "exceeds 64 bytes", "refusing oversized response"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q\n  missing %q", err, want)
		}
	}
}
