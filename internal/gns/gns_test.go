package gns

import (
	"context"
	"errors"
	"strings"
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
	ver, err := c.put(ctx, "dave.phone", addrs("10.1.2.3", "10.4.5.6"))
	if err != nil {
		t.Fatal(err)
	}
	if ver == 0 {
		t.Fatal("version must be assigned")
	}
	rec, err := c.get(ctx, "dave.phone")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Addrs) != 2 || rec.Version != ver {
		t.Fatalf("lookup = %+v", rec)
	}
	// The version vector is the client's, handed back as it was put.
	if resp, err := c.exchange(ctx, Request{Op: "vget", Name: "dave.phone"}); err != nil || resp.VV != "1:1" {
		t.Fatalf("vget = %+v, %v; want the put's VV 1:1", resp, err)
	}
	// Errors surface through the protocol.
	if _, err := c.get(ctx, "missing"); err == nil {
		t.Fatal("missing name should error")
	}
	if _, err := c.put(ctx, "x", []netaddr.Addr{}); err != nil {
		t.Fatalf("empty update should be legal: %v", err)
	}
}

// TestDistinctNamesStayDistinctOnTheWire: the client shards and caches by
// the name it was given, so the replica must store that name and no other.
// A wire form that coerces names to valid UTF-8 makes "a\xff" and "a\xfe"
// one key at the server.
func TestDistinctNamesStayDistinctOnTheWire(t *testing.T) {
	srv := serveLoopback(t, newMapBackend())
	ctx := context.Background()
	c := newWireClient(srv.Addr())
	if _, err := c.put(ctx, "a\xff", addrs("10.0.0.1")); err != nil {
		t.Fatal(err)
	}
	if rec, err := c.get(ctx, "a\xfe"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup of %q, never bound, returned %+v, %v", "a\xfe", rec, err)
	}
	if rec, err := c.get(ctx, "a\xff"); err != nil || rec.Name != "a\xff" || len(rec.Addrs) != 1 {
		t.Fatalf("lookup of %q returned %+q, %v", "a\xff", rec.Name, err)
	}
	// NUL, a quote, an HTML-unsafe byte, U+2028, a lone surrogate's UTF-8.
	for _, name := range []string{"nul\x00", `q"uote`, "<lt", "sep\u2028", "sur\xed\xa0\x80"} {
		if _, err := c.put(ctx, name, addrs("10.0.0.2")); err != nil {
			t.Fatal(err)
		}
		if rec, err := c.get(ctx, name); err != nil || rec.Name != name {
			t.Errorf("name %+q came back as %+q, %v", name, rec.Name, err)
		}
	}
}

func TestUDPServerBadInput(t *testing.T) {
	srv := serveLoopback(t, newMapBackend())
	// Unknown ops (a replica speaks only vget and vput) and malformed addrs
	// produce protocol errors, not hangs.
	for _, op := range []string{"destroy", "lookup", "update", "ping", ""} {
		if resp := srv.handle(appendRequest(nil, &Request{Op: op, Name: "x"})); resp.OK || resp.Code != CodeBadRequest || !strings.Contains(resp.Err, "unknown op") {
			t.Fatalf("op %q answered %+v, want an unknown-op CodeBadRequest", op, resp)
		}
	}
	if resp := srv.handle(appendRequest(nil, &Request{Op: "vput", Name: "x", Addrs: []string{"nope"}})); resp.OK {
		t.Fatal("bad address must error")
	}
	if resp := srv.handle([]byte(`{not a datagram`)); resp.OK {
		t.Fatal("a datagram the codec does not read must error")
	}
}

func TestClientUnreachable(t *testing.T) {
	c := newWireClient("127.0.0.1:1")
	c.policy.MaxAttempts = 1
	c.policy.PerAttempt = 50 * time.Millisecond
	if _, err := c.get(context.Background(), "x"); err == nil {
		t.Fatal("unreachable server should error")
	}
}
