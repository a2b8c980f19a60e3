package gns

import (
	"context"
	"errors"
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

// TestDistinctNamesStayDistinctOnTheWire: the client shards and caches by
// the name it was given, so the replica must store that name and no other.
// A wire form that coerces names to valid UTF-8 makes "a\xff" and "a\xfe"
// one key at the server.
func TestDistinctNamesStayDistinctOnTheWire(t *testing.T) {
	srv := serveLoopback(t, newMapBackend())
	ctx := context.Background()
	c := newWireClient(srv.Addr())
	if _, err := c.update(ctx, "a\xff", addrs("10.0.0.1")); err != nil {
		t.Fatal(err)
	}
	if rec, err := c.lookup(ctx, "a\xfe"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup of %q, never bound, returned %+v, %v", "a\xfe", rec, err)
	}
	if rec, err := c.lookup(ctx, "a\xff"); err != nil || rec.Name != "a\xff" || len(rec.Addrs) != 1 {
		t.Fatalf("lookup of %q returned %+q, %v", "a\xff", rec.Name, err)
	}
	// NUL, a quote, an HTML-unsafe byte, U+2028, a lone surrogate's UTF-8.
	for _, name := range []string{"nul\x00", `q"uote`, "<lt", "sep\u2028", "sur\xed\xa0\x80"} {
		if _, err := c.update(ctx, name, addrs("10.0.0.2")); err != nil {
			t.Fatal(err)
		}
		if rec, err := c.lookup(ctx, name); err != nil || rec.Name != name {
			t.Errorf("name %+q came back as %+q, %v", name, rec.Name, err)
		}
	}
}

func TestUDPServerBadInput(t *testing.T) {
	srv := serveLoopback(t, newMapBackend())
	// Unknown op and malformed addrs produce protocol errors, not hangs.
	if resp := srv.handle(appendRequest(nil, &Request{Op: "destroy"})); resp.OK || resp.Err == "" {
		t.Fatal("unknown op must error")
	}
	if resp := srv.handle(appendRequest(nil, &Request{Op: "update", Name: "x", Addrs: []string{"nope"}})); resp.OK {
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
	if _, err := c.lookup(context.Background(), "x"); err == nil {
		t.Fatal("unreachable server should error")
	}
}
