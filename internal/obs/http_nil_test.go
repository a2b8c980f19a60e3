package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerNilSourcesReturn404(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewSampler(NewRegistry(), 0), nil))
	defer srv.Close()
	base := srv.URL

	code, body := get(t, base+"/debug/traces")
	if code != 404 || !strings.Contains(body, "tracing disabled") {
		t.Fatalf("/debug/traces with nil tracer = %d: %q", code, body)
	}
	// The flight recorder is gone: its path is the mux's own 404, not an
	// endpoint in the explanatory-404 state.
	code, body = get(t, base+"/debug/log")
	if code != 404 || body != "404 page not found\n" {
		t.Fatalf("/debug/log = %d: %q, want the mux's plain 404", code, body)
	}
	// The rest of the surface must stay up regardless.
	if code, _ = get(t, base+"/metrics"); code != 200 {
		t.Fatalf("/metrics = %d with nil tracer", code)
	}
	if code, _ = get(t, base+"/healthz"); code != 200 {
		t.Fatalf("/healthz = %d with nil tracer", code)
	}
}

func TestHandlerChromeFormat(t *testing.T) {
	tr := NewTracer(9, 8)
	req := tr.Start("request")
	req.Child("attempt").End()
	req.End()
	srv := httptest.NewServer(NewHandler(nil, tr))
	defer srv.Close()

	code, body := get(t, srv.URL+"/debug/traces?format=chrome")
	if code != 200 {
		t.Fatalf("?format=chrome = %d: %s", code, body)
	}
	events := decodeChrome(t, body)
	if len(events) != 2 {
		t.Fatalf("chrome export over HTTP carried %d events, want 2", len(events))
	}
}
