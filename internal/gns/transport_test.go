package gns

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"locind/internal/faultnet"
	"locind/internal/reliable"
)

// stubServer is a UDP peer under the test's control: it hands every request
// it receives to reply, which decides what (and when) to answer.
type stubServer struct {
	conn net.PacketConn
	done chan struct{}
}

// startStub serves reply on a loopback socket until the test ends. reply
// runs on the serve goroutine; send writes one datagram back to the
// request's sender.
func startStub(t *testing.T, reply func(req Request, from net.Addr, send func(Response))) *stubServer {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stubServer{conn: conn, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		buf := make([]byte, maxDatagram+1)
		for {
			n, from, err := conn.ReadFrom(buf)
			if err != nil {
				return
			}
			var req Request
			if err := decodeRequest(buf[:n], &req); err != nil {
				t.Errorf("stub: undecodable request %q: %v", buf[:n], err)
				continue
			}
			reply(req, from, func(resp Response) {
				conn.WriteTo(appendResponse(nil, &resp), from) //nolint:errcheck // a lost reply is the client's timeout
			})
		}
	}()
	t.Cleanup(func() {
		conn.Close()
		<-s.done
	})
	return s
}

func (s *stubServer) addr() string { return s.conn.LocalAddr().String() }

// echo answers every request at once with its own name and ID.
func echo(req Request, _ net.Addr, send func(Response)) {
	send(Response{ID: req.ID, OK: true, Name: req.Name})
}

var oneAttempt = reliable.Policy{MaxAttempts: 1, PerAttempt: 2 * time.Second}

// TestTransportDiscardsDuplicatedReplies: with every reply delivered twice,
// the second copy of reply k is already queued on the pooled socket when
// request k+1 goes out. Without the transaction-ID check request k+1 would
// be answered with name k's record.
func TestTransportDiscardsDuplicatedReplies(t *testing.T) {
	svc := newMapBackend()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	env := faultnet.NewEnv(1)
	srv := ServePacketConnObserved(context.Background(), svc, faultnet.WrapPacketConn(pc, env, faultnet.PacketFaults{Dup: 1}, faultnet.PacketFaults{}, nil), nil)
	defer srv.Close()

	names := [2]string{"alice.phone", "bob.laptop"}
	want := [2]string{"10.0.0.1", "10.0.0.2"}
	var vers [2]uint64
	for i, name := range names {
		vers[i] = svc.put(name, want[i])
	}

	var tr Transport
	defer tr.Close()
	ctx := context.Background()
	for i := 0; i < 2000; i++ {
		k := i % 2
		resp, attempts, err := tr.Exchange(ctx, srv.Addr(), Request{Op: "vget", Name: names[k]}, oneAttempt)
		if err != nil || attempts != 1 {
			t.Fatalf("lookup %d: %d attempts, %v", i, attempts, err)
		}
		if resp.Name != names[k] || len(resp.Addrs) != 1 || resp.Addrs[0] != want[k] || resp.Version != vers[k] {
			t.Fatalf("lookup %d of %s answered with %+v", i, names[k], resp)
		}
		if n := tr.IdleSockets(srv.Addr()); n != 1 {
			t.Fatalf("lookup %d: %d idle sockets, want the one pooled socket", i, n)
		}
	}
	if env.Stats().Duplicated != 2000 {
		t.Fatalf("injected %d duplicates, want one per reply", env.Stats().Duplicated)
	}
}

// TestTransportTimedOutSocketIsNotReused: a reply held back past the
// attempt's deadline belongs to a socket that is closed, not pooled, so the
// next request goes out on a fresh socket and can only see its own reply.
func TestTransportTimedOutSocketIsNotReused(t *testing.T) {
	release := make(chan struct{})
	var sources []string
	srv := startStub(t, func(req Request, from net.Addr, send func(Response)) {
		sources = append(sources, from.String())
		if req.Name == "slow" {
			<-release // the test lets go only after the attempt has timed out
		}
		echo(req, from, send)
	})

	var tr Transport
	defer tr.Close()
	ctx := context.Background()
	_, _, err := tr.Exchange(ctx, srv.addr(), Request{Op: "vget", Name: "slow"},
		reliable.Policy{MaxAttempts: 1, PerAttempt: 40 * time.Millisecond})
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("held-back reply: err = %v, want a timeout", err)
	}
	if n := tr.IdleSockets(srv.addr()); n != 0 {
		t.Fatalf("%d idle sockets after a timeout; the socket must be closed", n)
	}
	close(release) // the late reply goes out now, to a socket nobody reads

	resp, _, err := tr.Exchange(ctx, srv.addr(), Request{Op: "vget", Name: "fast"}, oneAttempt)
	if err != nil || resp.Name != "fast" {
		t.Fatalf("request after the timeout: %+v, %v", resp, err)
	}
	<-closeAndWait(srv) // the serve goroutine is done with sources
	if len(sources) != 2 || sources[0] == sources[1] {
		t.Fatalf("request sources %v: the second request must come from a new socket", sources)
	}
}

// closeAndWait stops the stub so the test may read what its handler wrote.
func closeAndWait(s *stubServer) <-chan struct{} {
	s.conn.Close()
	return s.done
}

// TestTransportClearsDeadlineBetweenAttempts: a pooled socket keeps the
// deadline its last attempt set. An attempt whose context has no deadline
// must clear it, or it fails at once on a deadline long past.
func TestTransportClearsDeadlineBetweenAttempts(t *testing.T) {
	var sources []string
	srv := startStub(t, func(req Request, from net.Addr, send func(Response)) {
		sources = append(sources, from.String())
		echo(req, from, send)
	})
	var tr Transport
	defer tr.Close()
	ctx := context.Background()
	const attemptTimeout = 30 * time.Millisecond
	if _, _, err := tr.Exchange(ctx, srv.addr(), Request{Op: "vget", Name: "a"},
		reliable.Policy{MaxAttempts: 1, PerAttempt: attemptTimeout}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * attemptTimeout) // the pooled socket's deadline is now in the past
	resp, _, err := tr.Exchange(ctx, srv.addr(), Request{Op: "vget", Name: "b"}, reliable.Policy{MaxAttempts: 1})
	if err != nil || resp.Name != "b" {
		t.Fatalf("attempt without a deadline on a socket with an expired one: %+v, %v", resp, err)
	}
	<-closeAndWait(srv)
	if len(sources) != 2 || sources[0] != sources[1] {
		t.Fatalf("request sources %v: both requests should share the pooled socket", sources)
	}
}

// TestTransportCallerDeadlineBeatsPerAttempt: an attempt's deadline is the
// earlier of the caller's and PerAttempt from the attempt's start, so a
// caller deadline well inside PerAttempt ends the wait for a held-back
// reply, and the socket it timed out on is closed, not pooled.
func TestTransportCallerDeadlineBeatsPerAttempt(t *testing.T) {
	release := make(chan struct{})
	srv := startStub(t, func(req Request, from net.Addr, send func(Response)) {
		<-release
		echo(req, from, send)
	})
	defer close(release)
	var tr Transport
	defer tr.Close()
	const callerTimeout, perAttempt = 50 * time.Millisecond, 10 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), callerTimeout)
	defer cancel()
	start := time.Now()
	_, attempts, err := tr.Exchange(ctx, srv.addr(), Request{Op: "vget", Name: "x"},
		reliable.Policy{MaxAttempts: 1, PerAttempt: perAttempt})
	elapsed := time.Since(start)
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() || attempts != 1 {
		t.Fatalf("held-back reply: %d attempts, err = %v; want one attempt ending in a timeout", attempts, err)
	}
	if elapsed > perAttempt/2 {
		t.Fatalf("attempt took %v; the caller's %v deadline should end it, not PerAttempt's %v", elapsed, callerTimeout, perAttempt)
	}
	if n := tr.IdleSockets(srv.addr()); n != 0 {
		t.Fatalf("%d idle sockets after a timeout; the socket must be closed", n)
	}
}

// TestTransportColdDialBoundedByAttemptDeadline: with no idle socket, an
// attempt dials, and the dial shares the attempt's deadline. A deadline
// already past when the dial starts fails the dial itself, so nothing is
// written.
func TestTransportColdDialBoundedByAttemptDeadline(t *testing.T) {
	requests := 0
	srv := startStub(t, func(req Request, from net.Addr, send func(Response)) { requests++; echo(req, from, send) })
	var tr Transport
	defer tr.Close()
	_, attempts, err := tr.Exchange(context.Background(), srv.addr(), Request{Op: "vget", Name: "x"},
		reliable.Policy{MaxAttempts: 1, PerAttempt: time.Nanosecond})
	var oerr *net.OpError
	if !errors.As(err, &oerr) || oerr.Op != "dial" || !oerr.Timeout() || attempts != 1 {
		t.Fatalf("cold dial past its deadline: %d attempts, err = %v; want one attempt failing its dial with a timeout", attempts, err)
	}
	if n := tr.IdleSockets(srv.addr()); n != 0 {
		t.Fatalf("%d idle sockets after a failed dial", n)
	}
	// The next attempt, with time to spare, dials and is answered.
	if resp, _, err := tr.Exchange(context.Background(), srv.addr(), Request{Op: "vget", Name: "y"}, oneAttempt); err != nil || resp.Name != "y" {
		t.Fatalf("exchange after the failed dial: %+v, %v", resp, err)
	}
	<-closeAndWait(srv)
	if requests != 1 {
		t.Fatalf("server saw %d requests, want only the one after the failed dial", requests)
	}
}

// TestTransportClose: Close closes every idle socket, and a closed
// Transport fails an exchange without dialling or retrying.
func TestTransportClose(t *testing.T) {
	requests := 0
	a := startStub(t, func(req Request, from net.Addr, send func(Response)) { requests++; echo(req, from, send) })
	b := startStub(t, echo)
	var tr Transport
	ctx := context.Background()
	for _, addr := range []string{a.addr(), b.addr(), a.addr()} {
		if _, _, err := tr.Exchange(ctx, addr, Request{Op: "vget", Name: "x"}, oneAttempt); err != nil {
			t.Fatal(err)
		}
	}
	var pooled []net.Conn
	for _, addr := range []string{a.addr(), b.addr()} {
		if n := tr.IdleSockets(addr); n != 1 {
			t.Fatalf("%d idle sockets for %s, want 1", n, addr)
		}
		pooled = append(pooled, tr.idle[addr]...)
	}

	tr.Close()
	tr.Close() // twice is harmless
	for _, addr := range []string{a.addr(), b.addr()} {
		if n := tr.IdleSockets(addr); n != 0 {
			t.Fatalf("%d idle sockets for %s after Close", n, addr)
		}
	}
	for _, conn := range pooled {
		if _, err := conn.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("pooled socket still open after Close: write err = %v", err)
		}
	}
	_, attempts, err := tr.Exchange(ctx, a.addr(), Request{Op: "vget", Name: "x"},
		reliable.Policy{MaxAttempts: 5, PerAttempt: time.Second})
	if !errors.Is(err, net.ErrClosed) || attempts != 1 {
		t.Fatalf("exchange on a closed Transport: %d attempts, err = %v; want one attempt failing with net.ErrClosed", attempts, err)
	}
	<-closeAndWait(a)
	if requests != 2 {
		t.Fatalf("server a saw %d requests, want the 2 made before Close", requests)
	}
}

// TestTransportRejectsOversizedRequest: a request the server would refuse
// unread is refused before it is sent, with the same permanent code — also
// when a field is longer than its length prefix can say, which must not
// wrap into a small datagram.
func TestTransportRejectsOversizedRequest(t *testing.T) {
	srv := startStub(t, func(req Request, _ net.Addr, _ func(Response)) {
		t.Errorf("oversized request %q reached the server", req.Op)
	})
	var tr Transport
	defer tr.Close()
	for _, size := range []int{maxDatagram, 70000} {
		_, attempts, err := tr.Exchange(context.Background(), srv.addr(),
			Request{Op: "vget", Name: strings.Repeat("n", size)}, reliable.Policy{MaxAttempts: 3, PerAttempt: time.Second})
		if !errors.Is(err, ErrBadRequest) || !reliable.IsPermanent(err) || attempts != 1 {
			t.Fatalf("%d-byte name: %d attempts, err = %v", size, attempts, err)
		}
	}
}

// TestServerEchoesTransactionID: every kind of reply carries the request's
// ID — as far as the request could be read when it is malformed — and a
// request without one still gets a well-formed reply without one.
func TestServerEchoesTransactionID(t *testing.T) {
	svc := newMapBackend()
	svc.put("x", "10.0.0.1")
	live, dead := &Server{svc: svc}, &Server{svc: nil} // a nil backend panics on dispatch
	enc := func(r Request) []byte { return appendRequest(nil, &r) }
	for _, tc := range []struct {
		name string
		srv  *Server
		raw  []byte
		id   uint64
		code Code
	}{
		{"success", live, enc(Request{ID: 7, Op: "vget", Name: "x"}), 7, CodeOK},
		{"not found", live, enc(Request{ID: 8, Op: "vget", Name: "nobody"}), 8, CodeNotFound},
		{"unknown op", live, enc(Request{ID: 9, Op: "destroy"}), 9, CodeBadRequest},
		{"bad address", live, enc(Request{ID: 10, Op: "vput", Name: "x", Addrs: []string{"nope"}}), 10, CodeBadRequest},
		{"panic", dead, enc(Request{ID: 11, Op: "vget", Name: "x"}), 11, CodeInternal},
		{"malformed after the id", live, enc(Request{ID: 12, Op: "vget", Name: "x"})[:1+8+3], 12, CodeBadRequest},
		{"cut inside the id", live, enc(Request{ID: 13, Op: "vget", Name: "x"})[:1+7], 0, CodeBadRequest},
		{"no id", live, enc(Request{Op: "vget", Name: "x"}), 0, CodeOK},
		{"no id, error", live, enc(Request{Op: "destroy"}), 0, CodeBadRequest},
	} {
		resp := tc.srv.handle(tc.raw)
		if resp.ID != tc.id || resp.Code != tc.code || resp.OK != (tc.code == CodeOK) {
			t.Errorf("%s: reply %+v, want id %d code %d", tc.name, resp, tc.id, tc.code)
		}
		wire := appendResponse(nil, &resp)
		var back Response
		if err := decodeResponse(wire, &back); err != nil {
			t.Errorf("%s: reply %x is not a well-formed datagram: %v", tc.name, wire, err)
		}
		if back.ID != tc.id {
			t.Errorf("%s: reply %x carries id %d", tc.name, wire, back.ID)
		}
	}
}
