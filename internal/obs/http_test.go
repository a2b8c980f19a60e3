package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestIntrospectionEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("locind_test_requests_total", "requests").Add(7)
	tr := NewTracer(1, 16)
	tr.Start("probe").End()

	srv := httptest.NewServer(NewHandler(NewSampler(reg, 0), tr))
	defer srv.Close()
	base := srv.URL

	code, body := get(t, base+"/metrics")
	if code != 200 || !strings.Contains(body, "locind_test_requests_total 7") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}
	code, body = get(t, base+"/debug/traces")
	if code != 200 || !strings.Contains(body, `"name":"probe"`) {
		t.Fatalf("/debug/traces = %d: %s", code, body)
	}
	code, body = get(t, base+"/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
	code, _ = get(t, base+"/healthz")
	if code != 200 {
		t.Fatalf("/healthz = %d", code)
	}
}
