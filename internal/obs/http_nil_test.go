package obs

import (
	"context"
	"strings"
	"testing"
)

func TestHandlerNilSourcesReturn404(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := Serve(ctx, "127.0.0.1:0", NewHandler(HandlerOpts{Reg: NewRegistry()}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

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
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := Serve(ctx, "127.0.0.1:0", NewHandler(HandlerOpts{Reg: NewRegistry(), Tracer: tr}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, "http://"+srv.Addr()+"/debug/traces?format=chrome")
	if code != 200 {
		t.Fatalf("?format=chrome = %d: %s", code, body)
	}
	events := decodeChrome(t, body)
	if len(events) != 2 {
		t.Fatalf("chrome export over HTTP carried %d events, want 2", len(events))
	}
}
