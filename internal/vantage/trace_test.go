package vantage

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"locind/internal/cdn"
	"locind/internal/netaddr"
	"locind/internal/nomad"
	"locind/internal/obs"
)

// TestTraceContextCrossesBothUploadHops: an upload of either measurement
// pipeline carries its client span in obs.TraceHeader, and the server's span
// parents onto that client span. Client and server record into separate
// tracers, as two processes would, so only the header can link them.
func TestTraceContextCrossesBothUploadHops(t *testing.T) {
	for _, c := range []struct {
		pipeline       string
		client, server string // span names
		handler        func(tr *obs.Tracer) http.Handler
		upload         func(ctx context.Context, tr *obs.Tracer, addr string) error
	}{
		{
			pipeline: "nomad", client: "batch", server: "nomad-store",
			handler: func(tr *obs.Tracer) http.Handler {
				s := nomad.NewStreamingServer()
				s.Tracer = tr
				return s
			},
			upload: func(ctx context.Context, tr *obs.Tracer, addr string) error {
				span := tr.Start("batch")
				defer span.End()
				dev := nomad.HashDeviceID("device-0")
				batch := []nomad.Entry{{DeviceID: dev, IPAddr: "22.33.44.55", NetType: "wifi"}}
				return nomad.NewClient("http://"+addr).Upload(obs.ContextWith(ctx, span), dev+"-b000001", batch)
			},
		},
		{
			pipeline: "vantage", client: "vantage-node", server: "vantage-commit",
			handler: func(tr *obs.Tracer) http.Handler {
				c := NewController()
				c.Tracer = tr
				return c
			},
			upload: func(ctx context.Context, tr *obs.Tracer, addr string) error {
				tls := []cdn.Timeline{{Site: cdn.Site{Name: "x.example.com"}, Hours: 1,
					Initial: []netaddr.Addr{netaddr.MustParseAddr("10.0.0.1")}}}
				return (&Campaign{Controller: addr, Nodes: 1, Tracer: tr}).Run(ctx, tls)
			},
		},
	} {
		t.Run(c.pipeline, func(t *testing.T) {
			clientTr, serverTr := obs.NewTracer(1, 0), obs.NewTracer(2, 0)
			ts := httptest.NewServer(c.handler(serverTr))
			defer ts.Close()
			if err := c.upload(context.Background(), clientTr, ts.Listener.Addr().String()); err != nil {
				t.Fatal(err)
			}
			ts.Close() // the server span ends after the response is written
			client, server := onlySpan(t, clientTr, c.client), onlySpan(t, serverTr, c.server)
			if server.Parent != client.ID || server.Trace != client.Trace {
				t.Fatalf("%s span has parent %x in trace %x, want the %s span %x in trace %x",
					c.server, server.Parent, server.Trace, c.client, client.ID, client.Trace)
			}
		})
	}
}

// onlySpan returns the one span named name that tr recorded.
func onlySpan(t *testing.T, tr *obs.Tracer, name string) obs.SpanRecord {
	t.Helper()
	var found []obs.SpanRecord
	for _, s := range tr.Spans() {
		if s.Name == name {
			found = append(found, s)
		}
	}
	if len(found) != 1 {
		t.Fatalf("recorded %d %q spans, want 1", len(found), name)
	}
	return found[0]
}
