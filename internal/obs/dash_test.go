package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func sampledHandler(t *testing.T) (http.Handler, *Sampler, *Gauge) {
	t.Helper()
	r := NewRegistry()
	g0 := r.Gauge("locind_nomad_engine_heap_bytes", "", "shard", "0")
	g1 := r.Gauge("locind_nomad_engine_heap_bytes", "", "shard", "1")
	s := NewSampler(r, 32)
	s.Check("heap-bounded", `locind_nomad_engine_heap_bytes{shard="0"}`, Bounded{Min: 0, Max: 1000})
	for i := 0; i < 8; i++ {
		g0.Set(int64(100 + i))
		g1.Set(int64(200 + i))
		s.Tick()
	}
	return NewHandler(s, nil), s, g0
}

func dashGet(t *testing.T, h http.Handler, path string) (*http.Response, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	res := rec.Result()
	body, _ := io.ReadAll(res.Body)
	return res, string(body)
}

func TestTimeseriesEndpoint(t *testing.T) {
	h, _, _ := sampledHandler(t)
	res, body := dashGet(t, h, "/debug/timeseries")
	if res.StatusCode != 200 {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var d Dump
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatalf("body is not a Dump: %v", err)
	}
	if len(d.Series) != 2 || d.Ticks != 8 || len(d.Checks) != 1 {
		t.Fatalf("dump = %d series, %d ticks, %d checks", len(d.Series), d.Ticks, len(d.Checks))
	}
}

func TestTimeseriesWithoutSampler404s(t *testing.T) {
	h := NewHandler(nil, nil)
	for _, path := range []string{"/debug/timeseries", "/debug/dash"} {
		res, body := dashGet(t, h, path)
		if res.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status = %d, want 404", path, res.StatusCode)
		}
		if !strings.Contains(body, "sampling disabled") {
			t.Fatalf("%s body = %q, want explanatory 404", path, body)
		}
	}
	// /healthz still answers ok with no sampler attached.
	res, body := dashGet(t, h, "/healthz")
	if res.StatusCode != 200 || body != "ok\n" {
		t.Fatalf("healthz = %d %q", res.StatusCode, body)
	}
}

func TestDashRendersSelfContainedHTML(t *testing.T) {
	h, _, _ := sampledHandler(t)
	res, body := dashGet(t, h, "/debug/dash")
	if res.StatusCode != 200 {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type = %q", ct)
	}
	for _, want := range []string{"<!DOCTYPE html>", "<svg", "polyline", "locind_nomad_engine_heap_bytes"} {
		if !strings.Contains(body, want) {
			t.Fatalf("dash missing %q", want)
		}
	}
	// Self-contained: no external fetches of any kind, and no scripts.
	for _, banned := range []string{"http://", "https://", "<script", "src=", "@import"} {
		if strings.Contains(body, banned) {
			t.Fatalf("dash must be self-contained; found %q", banned)
		}
	}
}

func TestDashGroupsByLabel(t *testing.T) {
	h, _, _ := sampledHandler(t)
	_, body := dashGet(t, h, "/debug/dash?by=shard")
	if !strings.Contains(body, "<h2>shard=0</h2>") || !strings.Contains(body, "<h2>shard=1</h2>") {
		t.Fatalf("per-shard sections missing:\n%s", body)
	}
	// Default view groups by family instead.
	_, body = dashGet(t, h, "/debug/dash")
	if !strings.Contains(body, "<h2>locind_nomad_engine_heap_bytes</h2>") {
		t.Fatal("family section missing in default view")
	}
	if strings.Contains(body, "<h2>shard=0</h2>") {
		t.Fatal("default view must not group by shard")
	}
}

func TestHealthzDegradesOnFailingCheck(t *testing.T) {
	h, s, g0 := sampledHandler(t)
	res, body := dashGet(t, h, "/healthz")
	if res.StatusCode != 200 || body != "ok\n" {
		t.Fatalf("healthy healthz = %d %q", res.StatusCode, body)
	}
	g0.Set(5000) // outside Bounded{0,1000}
	s.Tick()
	res, body = dashGet(t, h, "/healthz")
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded healthz status = %d, want 503", res.StatusCode)
	}
	if !strings.HasPrefix(body, "degraded\n") || !strings.Contains(body, "heap-bounded") {
		t.Fatalf("degraded body = %q", body)
	}
}

func TestWriteDashNilSampler(t *testing.T) {
	var b strings.Builder
	WriteDash(&b, nil, "")
	if !strings.Contains(b.String(), "sampler disabled") {
		t.Fatalf("nil-sampler dash = %q", b.String())
	}
}
