package faultnet

import (
	"net"
	"strings"
	"testing"
	"time"
)

func TestPartitionBlockedSemantics(t *testing.T) {
	p := NewEnv(1).NewPartition()

	p.Isolate("a")
	if !p.Blocked("a", "b") || !p.Blocked("b", "a") {
		t.Fatal("isolation should cut both directions")
	}
	if p.Blocked("b", "c") {
		t.Fatal("isolation of a should not touch b<->c")
	}
	p.HealAll()
	if p.Blocked("a", "b") {
		t.Fatal("heal should remove the isolation")
	}
}

func TestPartitionWrapPacketConnSwallowsCutTraffic(t *testing.T) {
	env := NewEnv(7)
	p := env.NewPartition()

	raw1, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := p.WrapPacketConn(raw1), p.WrapPacketConn(raw2)
	defer c1.Close() //nolint:errcheck // test teardown
	defer c2.Close() //nolint:errcheck // test teardown
	a1, a2 := c1.LocalAddr(), c2.LocalAddr()

	recv := func(want string) {
		t.Helper()
		buf := make([]byte, 64)
		if err := c2.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
			t.Fatal(err)
		}
		n, from, err := c2.ReadFrom(buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if got := string(buf[:n]); got != want {
			t.Fatalf("read %q from %v, want %q", got, from, want)
		}
	}

	// Healthy path.
	if _, err := c1.WriteTo([]byte("one"), a2); err != nil {
		t.Fatal(err)
	}
	recv("one")

	// Cut the edge: the write still reports success (a dead link, not an
	// error) but nothing arrives; a post-heal datagram is the next read.
	p.Isolate(a2.String())
	if n, err := c1.WriteTo([]byte("lost"), a2); err != nil || n != 4 {
		t.Fatalf("write into cut: n=%d err=%v, want full length and nil", n, err)
	}
	p.HealAll()
	if _, err := c1.WriteTo([]byte("two"), a2); err != nil {
		t.Fatal(err)
	}
	recv("two")

	if got := env.Stats().Partitioned; got != 1 {
		t.Fatalf("Partitioned=%d, want 1 swallowed datagram", got)
	}

	// Receiver-side cut: send from the UNwrapped socket so the datagram
	// reaches c2's queue, where ReadFrom must drop it. The read then times
	// out (nothing deliverable) and the swallow is counted.
	p.Isolate(a1.String())
	if _, err := raw1.WriteTo([]byte("dropped"), a2); err != nil {
		t.Fatal(err)
	}
	if err := c2.SetReadDeadline(time.Now().Add(300 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, _, err := c2.ReadFrom(buf); err == nil {
		t.Fatal("read across a cut inbound edge should find nothing deliverable")
	}
	if got := env.Stats().Partitioned; got != 2 {
		t.Fatalf("Partitioned=%d, want 2 after receiver-side drop", got)
	}

	p.HealAll()
	if _, err := c1.WriteTo([]byte("three"), a2); err != nil {
		t.Fatal(err)
	}
	recv("three")
}

// TestPacketConnCutOrder pins where a cut sits among the probabilistic
// faults of one wrapper: before the receive draw, after the send draw.
func TestPacketConnCutOrder(t *testing.T) {
	env := NewEnv(5)
	p := env.NewPartition()
	raw, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peer, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close() //nolint:errcheck // test teardown
	c := WrapPacketConn(raw, env, PacketFaults{Dup: 1}, PacketFaults{Drop: 1}, p)
	defer c.Close() //nolint:errcheck // test teardown
	p.Isolate(peer.LocalAddr().String())

	// Receive: the peer's datagram is swallowed by the cut, so no drop is
	// ever drawn for it.
	if _, err := peer.WriteTo([]byte("in"), c.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := c.SetReadDeadline(time.Now().Add(300 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ReadFrom(make([]byte, 64)); err == nil {
		t.Fatal("read across a cut delivered a datagram")
	}
	if st := env.Stats(); st.Partitioned != 1 || st.Dropped != 0 {
		t.Fatalf("after a cut read: Partitioned=%d Dropped=%d, want 1 and 0", st.Partitioned, st.Dropped)
	}
	if trace := strings.Join(env.Trace(), "\n"); strings.Contains(trace, "recv drop") {
		t.Fatalf("a cut datagram drew a receive fault:\n%s", trace)
	}

	// Send: the duplicate is drawn first, then both copies meet the cut.
	if _, err := c.WriteTo([]byte("out"), peer.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if got := env.Stats().Partitioned; got != 3 {
		t.Fatalf("Partitioned=%d after a duplicated write into the cut, want 3", got)
	}
	if trace := strings.Join(env.Trace(), "\n"); !strings.Contains(trace, "send dup") {
		t.Fatalf("the send draw did not precede the cut:\n%s", trace)
	}
}

func TestPartitionControlEventsTraced(t *testing.T) {
	env := NewEnv(3)
	p := env.NewPartition()
	p.Isolate("x")
	p.HealAll()
	p.HealAll() // no-op: nothing left to heal, nothing recorded

	trace := strings.Join(env.Trace(), "\n")
	for _, want := range []string{
		"partition isolate x",
		"partition heal all",
	} {
		if !strings.Contains(trace, want) {
			t.Fatalf("trace missing %q:\n%s", want, trace)
		}
	}
	if strings.Count(trace, "partition heal all") != 1 {
		t.Fatalf("no-op HealAll recorded:\n%s", trace)
	}
}

func TestPartitionCutsConsumeNoRandomness(t *testing.T) {
	// Two envs with the same seed, one of which also runs partition
	// operations and swallowed datagrams: the seeded fault stream must not
	// shift. Drive the rng through fault draws and compare decisions.
	run := func(withPartition bool) []bool {
		env := NewEnv(42)
		if withPartition {
			p := env.NewPartition()
			p.Isolate("a", "b", "c")
			p.swallow()
			p.swallow()
			p.HealAll()
		}
		f := PacketFaults{Drop: 0.5}
		out := make([]bool, 32)
		for i := range out {
			out[i] = env.decidePacket(f, "tx", 64).drop
		}
		return out
	}
	a, b := run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault draw %d diverged after partition ops: %v vs %v", i, a, b)
		}
	}
}
