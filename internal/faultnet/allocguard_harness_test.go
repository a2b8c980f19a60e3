package faultnet

import (
	"net"
	"net/netip"
	"testing"

	"locind/internal/lint/allocguard"
)

func TestAllocGuard(t *testing.T) { allocguard.Check(t, allocGuardHarness()) }

// allocGuardHarness maps each //lint:zeroalloc symbol in this package to
// its measurement, consumed by TestAllocGuard. Each measures a wrapper the
// way a cluster node holds one — over a loopback *net.UDPConn, with a
// Partition that isolates nothing and no fault enabled — carrying one
// datagram per run in each direction, so the inner socket's own methods
// are counted too.
func allocGuardHarness() map[string]func(t *testing.T) float64 {
	return map[string]func(t *testing.T) float64{
		"PacketConn.ReadFromUDPAddrPort": func(t *testing.T) float64 {
			c, peer := wrappedPair(t)
			self := netip.MustParseAddrPort(c.LocalAddr().String())
			msg, buf := []byte("ping"), make([]byte, 64)
			return testing.AllocsPerRun(100, func() {
				if _, err := peer.WriteToUDPAddrPort(msg, self); err != nil {
					t.Fatal(err)
				}
				if n, from, err := c.ReadFromUDPAddrPort(buf); err != nil || n != 4 || !from.IsValid() {
					t.Fatalf("read %d bytes from %v: %v", n, from, err)
				}
			})
		},
		"PacketConn.WriteToUDPAddrPort": func(t *testing.T) float64 {
			c, peer := wrappedPair(t)
			to := netip.MustParseAddrPort(peer.LocalAddr().String())
			msg, buf := []byte("pong"), make([]byte, 64)
			return testing.AllocsPerRun(100, func() {
				if _, err := c.WriteToUDPAddrPort(msg, to); err != nil {
					t.Fatal(err)
				}
				if n, _, err := peer.ReadFromUDPAddrPort(buf); err != nil || n != 4 {
					t.Fatalf("read %d bytes: %v", n, err)
				}
			})
		},
	}
}

// wrappedPair returns a wrapped loopback socket, cut by a Partition that
// isolates nothing, and a plain peer socket, both closed when the test
// ends.
func wrappedPair(t *testing.T) (*PacketConn, *net.UDPConn) {
	t.Helper()
	listen := func() *net.UDPConn {
		pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pc.Close() })
		return pc
	}
	return NewEnv(1).NewPartition().WrapPacketConn(listen()), listen()
}
