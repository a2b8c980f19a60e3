package obs

import (
	"context"
	"io"
	"net/http"
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

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := Serve(ctx, "127.0.0.1:0", NewHandler(HandlerOpts{Reg: reg, Tracer: tr}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

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

	// ctx cancellation tears the endpoint down.
	cancel()
	if err := srv.Close(); err != nil && err != http.ErrServerClosed {
		t.Fatalf("close: %v", err)
	}
}
