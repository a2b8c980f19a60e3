package bgp

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"

	"locind/internal/netaddr"
)

// This file makes the collector a live system instead of a batch-built
// table: peers stream BGP-like UPDATE messages (announce/withdraw) over
// TCP, and the collector maintains its RIB and FIB incrementally — the
// mechanics behind the RouteViews dumps the paper consumes as snapshots.
// The wire format is a 4-byte length prefix followed by JSON.

// UpdateMsg is one BGP-like update from a feed peer.
type UpdateMsg struct {
	Peer     int         `json:"peer"`
	Announce []WireRoute `json:"announce,omitempty"`
	Withdraw []string    `json:"withdraw,omitempty"` // prefixes
}

// WireRoute is the serialized route attribute set.
type WireRoute struct {
	Prefix    string `json:"prefix"`
	LocalPref int    `json:"local_pref"`
	MED       int    `json:"med"`
	Rel       string `json:"rel"`
	ASPath    []int  `json:"as_path"`
}

const maxFeedFrame = 1 << 20

func writeFeedFrame(w io.Writer, m UpdateMsg) error {
	body, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if len(body) > maxFeedFrame {
		return fmt.Errorf("bgp: update frame of %d bytes exceeds limit", len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

func readFeedFrame(r io.Reader) (UpdateMsg, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return UpdateMsg{}, io.EOF
		}
		return UpdateMsg{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFeedFrame {
		return UpdateMsg{}, fmt.Errorf("bgp: update frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return UpdateMsg{}, err
	}
	var m UpdateMsg
	if err := json.Unmarshal(body, &m); err != nil {
		return UpdateMsg{}, err
	}
	return m, nil
}

// LiveCollector maintains a RIB and FIB incrementally from streamed
// updates. It is safe for concurrent sessions.
type LiveCollector struct {
	Name string

	mu      sync.Mutex
	rib     *RIB
	fib     *FIB
	applied int
	errs    []error

	ln net.Listener
	wg sync.WaitGroup
}

// NewLiveCollector creates an empty live collector.
func NewLiveCollector(name string) *LiveCollector {
	return &LiveCollector{Name: name, rib: NewRIB(), fib: &FIB{}}
}

// Apply ingests one update message, returning how many prefixes changed
// their selected best route (the collector-side update cost of the
// message). The whole message is parsed before the tables are touched, so a
// message with one bad route changes nothing: RIB and FIB never diverge.
func (lc *LiveCollector) Apply(m UpdateMsg) (bestChanges int, err error) {
	announce := make([]Route, len(m.Announce))
	for i, wr := range m.Announce {
		if announce[i], err = wireToRoute(m.Peer, wr); err != nil {
			return 0, err
		}
	}
	withdraw := make([]netaddr.Prefix, len(m.Withdraw))
	for i, ps := range m.Withdraw {
		if withdraw[i], err = netaddr.ParsePrefix(ps); err != nil {
			return 0, fmt.Errorf("bgp: bad withdraw prefix %q: %w", ps, err)
		}
	}

	lc.mu.Lock()
	defer lc.mu.Unlock()
	touched := map[netaddr.Prefix]bool{}
	for _, rt := range announce {
		lc.rib.withdraw(rt.Prefix, rt.NextHop) // BGP implicit withdraw
		lc.rib.Add(rt)
		touched[rt.Prefix] = true
	}
	for _, p := range withdraw {
		lc.rib.withdraw(p, m.Peer)
		touched[p] = true
	}
	for p := range touched {
		if lc.refreshFIBLocked(p) {
			bestChanges++
		}
	}
	lc.applied++
	return bestChanges, nil
}

// refreshFIBLocked recomputes the forwarding entry for p, reporting whether
// the selected next hop changed (including gaining or losing the route).
func (lc *LiveCollector) refreshFIBLocked(p netaddr.Prefix) bool {
	oldRt, hadOld := lc.fib.trie.Get(p)
	best, ok := lc.rib.Best(p)
	switch {
	case !ok && !hadOld:
		return false
	case !ok:
		lc.fib.trie.Remove(p)
		return true
	case !hadOld:
		lc.fib.trie.Insert(p, best)
		return true
	default:
		lc.fib.trie.Insert(p, best)
		return oldRt.NextHop != best.NextHop
	}
}

// Snapshot returns copies of the collector's current table sizes and a
// port lookup for tests.
func (lc *LiveCollector) Snapshot() (prefixes, routes, applied int) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.rib.NumPrefixes(), lc.rib.NumRoutes(), lc.applied
}

// Port answers the current forwarding decision for a.
func (lc *LiveCollector) Port(a netaddr.Addr) (int, bool) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.fib.Port(a)
}

// RouteFor answers the current selected route covering a.
func (lc *LiveCollector) RouteFor(a netaddr.Addr) (Route, bool) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.fib.RouteFor(a)
}

// Errs returns session errors observed so far.
func (lc *LiveCollector) Errs() []error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return append([]error(nil), lc.errs...)
}

// Listen starts accepting feed sessions on addr.
func (lc *LiveCollector) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	lc.ln = ln
	lc.wg.Add(1)
	go lc.acceptLoop()
	return nil
}

// Addr returns the listen address.
func (lc *LiveCollector) Addr() string { return lc.ln.Addr().String() }

// Close stops the listener and waits for sessions to drain.
func (lc *LiveCollector) Close() error {
	err := lc.ln.Close()
	lc.wg.Wait()
	return err
}

func (lc *LiveCollector) acceptLoop() {
	defer lc.wg.Done()
	for {
		conn, err := lc.ln.Accept()
		if err != nil {
			return
		}
		lc.wg.Add(1)
		go func() {
			defer lc.wg.Done()
			defer conn.Close()
			for {
				m, err := readFeedFrame(conn)
				if errors.Is(err, io.EOF) {
					return
				}
				if err != nil {
					lc.recordErr(err)
					return
				}
				if _, err := lc.Apply(m); err != nil {
					lc.recordErr(err)
					return
				}
			}
		}()
	}
}

func (lc *LiveCollector) recordErr(err error) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.errs = append(lc.errs, err)
}

// FeedSession is the peer side of a feed.
type FeedSession struct {
	PeerAS int
	conn   net.Conn
}

// DialFeed connects a peer to a live collector.
func DialFeed(addr string, peerAS int) (*FeedSession, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &FeedSession{PeerAS: peerAS, conn: conn}, nil
}

// Announce sends announcements for the given routes (the peer and next hop
// are this session's AS).
func (fs *FeedSession) Announce(routes []Route) error {
	m := UpdateMsg{Peer: fs.PeerAS}
	for _, rt := range routes {
		m.Announce = append(m.Announce, routeToWire(rt))
	}
	return writeFeedFrame(fs.conn, m)
}

// Withdraw retracts the given prefixes from this peer.
func (fs *FeedSession) Withdraw(prefixes []netaddr.Prefix) error {
	m := UpdateMsg{Peer: fs.PeerAS}
	for _, p := range prefixes {
		m.Withdraw = append(m.Withdraw, p.String())
	}
	return writeFeedFrame(fs.conn, m)
}

// Close ends the session.
func (fs *FeedSession) Close() error { return fs.conn.Close() }

func routeToWire(rt Route) WireRoute {
	return WireRoute{
		Prefix:    rt.Prefix.String(),
		LocalPref: rt.LocalPref,
		MED:       rt.MED,
		Rel:       rt.Rel.String(),
		ASPath:    rt.ASPath,
	}
}

func wireToRoute(peer int, wr WireRoute) (Route, error) {
	p, err := netaddr.ParsePrefix(wr.Prefix)
	if err != nil {
		return Route{}, fmt.Errorf("bgp: bad announce prefix %q: %w", wr.Prefix, err)
	}
	rel, err := parseRel(wr.Rel)
	if err != nil {
		return Route{}, err
	}
	if len(wr.ASPath) == 0 {
		return Route{}, fmt.Errorf("bgp: announce for %q has empty AS path", wr.Prefix)
	}
	return Route{
		Prefix:    p,
		NextHop:   peer,
		LocalPref: wr.LocalPref,
		MED:       wr.MED,
		Rel:       rel,
		ASPath:    wr.ASPath,
	}, nil
}

// StreamCollectorTables replays an existing batch-built collector through
// the live path: every candidate route becomes an announcement from its
// feed peer, grouped per peer in deterministic order. Used to check the
// incremental path agrees with the batch path, and by tools that want to
// serve synthesized tables over the wire.
func StreamCollectorTables(c *Collector, send func(peer int, routes []Route) error) error {
	byPeer := map[int][]Route{}
	for _, p := range c.RIB.Prefixes() {
		for _, rt := range c.RIB.Routes(p) {
			byPeer[rt.NextHop] = append(byPeer[rt.NextHop], rt)
		}
	}
	peers := make([]int, 0, len(byPeer))
	for p := range byPeer {
		peers = append(peers, p)
	}
	sort.Ints(peers)
	for _, p := range peers {
		if err := send(p, byPeer[p]); err != nil {
			return err
		}
	}
	return nil
}
