package faultnet

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"
)

// udpPair returns a fault-wrapped server socket and a plain client socket
// dialled at it.
func udpPair(t *testing.T, env *Env, send, recv PacketFaults) (*PacketConn, net.Conn) {
	t.Helper()
	srv, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	wrapped := WrapPacketConn(srv, env, send, recv, nil)
	cli, err := net.Dial("udp", srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return wrapped, cli
}

func TestPacketPassThroughWhenZero(t *testing.T) {
	env := NewEnv(1)
	srv, cli := udpPair(t, env, PacketFaults{}, PacketFaults{})
	if _, err := cli.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	srv.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	n, peer, err := srv.ReadFrom(buf)
	if err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("read = %q, %v", buf[:n], err)
	}
	if _, err := srv.WriteTo([]byte("pong"), peer); err != nil {
		t.Fatal(err)
	}
	cli.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	n, err = cli.Read(buf)
	if err != nil || string(buf[:n]) != "pong" {
		t.Fatalf("reply = %q, %v", buf[:n], err)
	}
	if s := env.Stats(); s != (Stats{}) {
		t.Fatalf("zero faults injected something: %+v", s)
	}
}

func TestPacketRecvDrop(t *testing.T) {
	env := NewEnv(7)
	env.SetSleep(func(time.Duration) {})
	srv, cli := udpPair(t, env, PacketFaults{}, PacketFaults{Drop: 1})
	if _, err := cli.Write([]byte("lost")); err != nil {
		t.Fatal(err)
	}
	srv.SetReadDeadline(time.Now().Add(100 * time.Millisecond)) //nolint:errcheck
	buf := make([]byte, 64)
	if _, _, err := srv.ReadFrom(buf); err == nil {
		t.Fatal("Drop=1 delivered a datagram")
	}
	if env.Stats().Dropped == 0 {
		t.Fatal("drop not counted")
	}
}

func TestPacketSendDup(t *testing.T) {
	env := NewEnv(3)
	srv, cli := udpPair(t, env, PacketFaults{Dup: 1}, PacketFaults{})
	// Learn the peer address first.
	if _, err := cli.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	srv.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	_, peer, err := srv.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.WriteTo([]byte("abcdef"), peer); err != nil {
		t.Fatal(err)
	}
	cli.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	for i := 0; i < 2; i++ {
		n, err := cli.Read(buf)
		if err != nil {
			t.Fatalf("copy %d: %v", i, err)
		}
		if string(buf[:n]) != "abcdef" {
			t.Fatalf("copy %d = %q, want %q", i, buf[:n], "abcdef")
		}
	}
	if s := env.Stats(); s != (Stats{Duplicated: 1}) {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPacketDelayUsesSleepHook(t *testing.T) {
	env := NewEnv(9)
	var slept []time.Duration
	env.SetSleep(func(d time.Duration) { slept = append(slept, d) })
	srv, cli := udpPair(t, env, PacketFaults{}, PacketFaults{
		Delay: 1, DelayMax: 100 * time.Millisecond,
	})
	if _, err := cli.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	srv.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	buf := make([]byte, 8)
	if _, _, err := srv.ReadFrom(buf); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] <= 0 || slept[0] > 100*time.Millisecond {
		t.Fatalf("sleep hook saw %v", slept)
	}
}

// TestPacketDeterministicTrace is the substrate-level determinism contract:
// the same seed and operation sequence yield an identical fault trace. The
// seed-42 trace is also pinned by digest across commits: a change to how
// many variates decidePacket draws, or in which order, moves every seeded
// chaos replay built on it.
func TestPacketDeterministicTrace(t *testing.T) {
	run := func(seed int64) []string {
		env := NewEnv(seed)
		env.SetSleep(func(time.Duration) {})
		srv, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		wrapped := WrapPacketConn(srv, env, PacketFaults{
			Drop: 0.3, Dup: 0.2, Delay: 0.3, DelayMax: 10 * time.Millisecond,
		}, PacketFaults{}, nil)
		peer, err := net.ResolveUDPAddr("udp", "127.0.0.1:9") // discard port; never read
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if _, err := wrapped.WriteTo([]byte(fmt.Sprintf("msg-%03d", i)), peer); err != nil {
				t.Fatal(err)
			}
		}
		return env.Trace()
	}
	a, b := run(42), run(42)
	// The pinned trace starts "send dup 7B", "send delay 835.883µs", "send drop 7B".
	const wantLines, wantSum = 134, "05901dc22434306d2ce2b09a59a8bf9dd1f471679a1fc4d61a6edad3a03535cf"
	if sum := sha256.Sum256([]byte(strings.Join(a, "\n"))); len(a) != wantLines || hex.EncodeToString(sum[:]) != wantSum {
		t.Fatalf("trace: %d lines, sha256 %x, first lines %q; want %d lines, sha256 %s",
			len(a), sum, a[:min(len(a), 3)], wantLines, wantSum)
	}
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace[%d]: %q vs %q", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(c) == len(a)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestPacketAdaptersReplayTheAddrPortTrace: ReadFrom and WriteTo are
// adapters over ReadFromUDPAddrPort and WriteToUDPAddrPort, so one seed and
// one datagram sequence give one Env trace through either API, cuts
// included. The WriteTo side uses a 16-byte IPv4 *net.UDPAddr, the form
// net.IPv4 builds: it must reach, and be cut as, the same peer as its
// AddrPort.
func TestPacketAdaptersReplayTheAddrPortTrace(t *testing.T) {
	run := func(addrPort bool) ([]string, Stats) {
		env := NewEnv(42)
		env.SetSleep(func(time.Duration) {})
		part := env.NewPartition()
		listen := func() *net.UDPConn {
			pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { pc.Close() })
			return pc
		}
		faults := PacketFaults{Drop: 0.3, Dup: 0.2, Delay: 0.3, DelayMax: 10 * time.Millisecond}
		c, peer := WrapPacketConn(listen(), env, faults, faults, part), listen()
		peerAP := netip.MustParseAddrPort(peer.LocalAddr().String())
		peerUDP := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: int(peerAP.Port())}
		for i := range 100 {
			switch i {
			case 60:
				part.Isolate(peerAP.String())
			case 80:
				part.HealAll()
			}
			msg := fmt.Appendf(nil, "msg-%03d", i)
			var err error
			if addrPort {
				_, err = c.WriteToUDPAddrPort(msg, peerAP)
			} else {
				_, err = c.WriteTo(msg, peerUDP)
			}
			if err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		self := netip.MustParseAddrPort(c.LocalAddr().String())
		for i := range 50 {
			if _, err := peer.WriteToUDPAddrPort(fmt.Appendf(nil, "in-%03d", i), self); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.SetReadDeadline(time.Now().Add(200 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		for {
			var from string
			var err error
			if addrPort {
				var ap netip.AddrPort
				_, ap, err = c.ReadFromUDPAddrPort(buf)
				from = ap.String()
			} else {
				var a net.Addr
				if _, a, err = c.ReadFrom(buf); err == nil {
					from = a.String()
				}
			}
			if err != nil {
				break
			}
			if from != peerAP.String() {
				t.Fatalf("read from %s, want %s", from, peerAP)
			}
		}
		trace := env.Trace()
		for i, line := range trace {
			trace[i] = strings.ReplaceAll(line, peerAP.String(), "PEER")
		}
		return trace, env.Stats()
	}
	viaAddrPort, statsAddrPort := run(true)
	viaAdapters, statsAdapters := run(false)
	if statsAddrPort != statsAdapters || statsAddrPort.Partitioned == 0 || statsAddrPort.Dropped == 0 {
		t.Fatalf("stats through AddrPort %+v, through the adapters %+v", statsAddrPort, statsAdapters)
	}
	if a, b := strings.Join(viaAddrPort, "\n"), strings.Join(viaAdapters, "\n"); a != b {
		t.Fatalf("traces differ:\nAddrPort:\n%s\nadapters:\n%s", a, b)
	}
}

// tcpServer accepts connections through the fault listener and echoes
// whatever it reads back, reporting per-connection outcomes.
func tcpServer(t *testing.T, env *Env, faults StreamFaults) net.Addr {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	fln := WrapListener(ln, env, faults)
	go func() {
		for {
			conn, err := fln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.Copy(conn, conn) //nolint:errcheck
			}()
		}
	}()
	return ln.Addr()
}

func TestStreamPassThrough(t *testing.T) {
	env := NewEnv(1)
	addr := tcpServer(t, env, StreamFaults{})
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	if _, err := conn.Write([]byte("echo")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(conn, buf); err != nil || string(buf) != "echo" {
		t.Fatalf("echo = %q, %v", buf, err)
	}
}

func TestStreamRefuse(t *testing.T) {
	env := NewEnv(2)
	addr := tcpServer(t, env, StreamFaults{Refuse: 1})
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err) // accept-then-close: dial itself succeeds
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	buf := make([]byte, 1)
	conn.Write([]byte("x")) //nolint:errcheck // may race the close
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("refused connection delivered data")
	}
	if env.Stats().Refused == 0 {
		t.Fatal("refusal not counted")
	}
}

func TestStreamResetAfterBudget(t *testing.T) {
	env := NewEnv(4)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fln := WrapListener(ln, env, StreamFaults{Reset: 1, ResetAfterMin: 10, ResetAfterMax: 10})
	serverErr := make(chan error, 1)
	go func() {
		conn, err := fln.Accept()
		if err != nil {
			serverErr <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, 4)
		for {
			if _, err := conn.Read(buf); err != nil {
				serverErr <- err
				return
			}
		}
	}()
	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.SetDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	for i := 0; i < 10; i++ {
		cli.Write([]byte("abcd")) //nolint:errcheck // the reset lands partway
	}
	select {
	case err := <-serverErr:
		if !errors.Is(err, ErrReset) {
			t.Fatalf("server saw %v, want ErrReset", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reset never fired")
	}
	if env.Stats().Reset == 0 {
		t.Fatal("reset not counted")
	}
}

func TestStreamStallUsesHook(t *testing.T) {
	env := NewEnv(6)
	var slept []time.Duration
	env.SetSleep(func(d time.Duration) { slept = append(slept, d) })
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	wrapped := WrapConn(a, env, StreamFaults{Stall: 1, StallFor: 300 * time.Millisecond})
	go func() {
		buf := make([]byte, 20)
		io.ReadFull(b, buf) //nolint:errcheck
	}()
	// The stall is one-shot: the second write goes straight through.
	for i := 0; i < 2; i++ {
		if _, err := wrapped.Write([]byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	if len(slept) != 1 || slept[0] != 300*time.Millisecond {
		t.Fatalf("hook calls = %v, want one 300ms stall", slept)
	}
	if s := env.Stats(); s != (Stats{Stalled: 1}) {
		t.Fatalf("stats = %+v", s)
	}
}

func TestStreamDeterministicDecisions(t *testing.T) {
	decide := func(seed int64) []string {
		env := NewEnv(seed)
		f := StreamFaults{Refuse: 0.2, Reset: 0.4, ResetAfterMin: 1, ResetAfterMax: 1 << 16, Stall: 0.1}
		for i := 0; i < 100; i++ {
			env.decideConn(f)
		}
		return env.Trace()
	}
	a, b := decide(99), decide(99)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("trace lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace[%d]: %q vs %q", i, a[i], b[i])
		}
	}
}
