package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("perspectron_test_total").Add(9)
	srv := httptest.NewServer(r.Handler(nil))
	defer srv.Close()

	code, body, hdr := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	if !strings.Contains(body, "perspectron_test_total 9") {
		t.Errorf("/metrics missing series:\n%s", body)
	}

	code, body, hdr = get(t, srv, "/metrics.json")
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("/metrics.json status %d type %q", code, hdr.Get("Content-Type"))
	}
	if !strings.Contains(body, `"perspectron_test_total": 9`) {
		t.Errorf("/metrics.json missing counter:\n%s", body)
	}

	code, body, _ = get(t, srv, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ status %d", code)
	}
}

func TestServeBindsAndShutsDown(t *testing.T) {
	r := NewRegistry()
	srv, addr, err := Serve("127.0.0.1:0", r, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
