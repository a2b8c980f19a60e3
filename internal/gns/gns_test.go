package gns

import (
	"context"
	"testing"
	"time"

	"locind/internal/netaddr"
)

func addrs(ss ...string) []netaddr.Addr {
	out := make([]netaddr.Addr, len(ss))
	for i, s := range ss {
		out[i] = netaddr.MustParseAddr(s)
	}
	return out
}

func TestUDPServerRoundTrip(t *testing.T) {
	srv := serveLoopback(t, newMapBackend())

	ctx := context.Background()
	c := newWireClient(srv.Addr())
	ver, err := c.update(ctx, "dave.phone", addrs("10.1.2.3", "10.4.5.6"))
	if err != nil {
		t.Fatal(err)
	}
	if ver == 0 {
		t.Fatal("version must be assigned")
	}
	rec, err := c.lookup(ctx, "dave.phone")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Addrs) != 2 || rec.Version != ver {
		t.Fatalf("lookup = %+v", rec)
	}
	// Errors surface through the protocol.
	if _, err := c.lookup(ctx, "missing"); err == nil {
		t.Fatal("missing name should error")
	}
	if _, err := c.update(ctx, "x", []netaddr.Addr{}); err != nil {
		t.Fatalf("empty update should be legal: %v", err)
	}
}

func TestUDPServerBadInput(t *testing.T) {
	srv := serveLoopback(t, newMapBackend())
	// Unknown op and malformed addrs produce protocol errors, not hangs.
	if resp := srv.handle([]byte(`{"op":"destroy"}`)); resp.OK || resp.Err == "" {
		t.Fatal("unknown op must error")
	}
	if resp := srv.handle([]byte(`{"op":"update","name":"x","addrs":["nope"]}`)); resp.OK {
		t.Fatal("bad address must error")
	}
	if resp := srv.handle([]byte(`{not json`)); resp.OK {
		t.Fatal("bad JSON must error")
	}
}

func TestClientUnreachable(t *testing.T) {
	c := newWireClient("127.0.0.1:1")
	c.policy.MaxAttempts = 1
	c.policy.PerAttempt = 50 * time.Millisecond
	if _, err := c.lookup(context.Background(), "x"); err == nil {
		t.Fatal("unreachable server should error")
	}
}
