package vantage

import (
	"context"
	"errors"
	"io"
	"net"
	"sort"
	"sync"

	"locind/internal/names"
	"locind/internal/netaddr"
	"locind/internal/obs"
)

// Controller is the central collection node: it accepts vantage-point
// connections and merges their hourly observations into per-(name, hour)
// union address sets, the paper's Addrs(d, t).
//
// Ingestion is transactional per connection: report frames are staged and
// only folded into the union when the node's Bye commits the campaign. A
// connection that dies before Bye — a vantage point crashing mid-campaign —
// is discarded whole, so a partial campaign can never corrupt the union.
// Commits are first-wins per node name: a node that replays its campaign
// because the Bye ack was lost on the wire is recognised and skipped.
type Controller struct {
	ln net.Listener

	mu         sync.Mutex
	merged     map[names.Name]map[int]map[netaddr.Addr]bool
	reports    int
	nodes      map[string]bool
	committed  map[string]bool
	discarded  int
	dupCommits int
	errs       []error
	tracer     *obs.Tracer

	wg sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
	stopped   chan struct{}
}

// StartController listens on the given address ("127.0.0.1:0" for an
// ephemeral test port) and begins accepting vantage connections until Close
// is called or ctx is cancelled.
func StartController(ctx context.Context, addr string) (*Controller, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ServeController(ctx, ln), nil
}

// ServeController runs a controller over a caller-provided listener — the
// seam chaos tests use to inject a fault-wrapped transport. Cancelling ctx
// stops accepting connections as if Close had been called.
func ServeController(ctx context.Context, ln net.Listener) *Controller {
	c := &Controller{
		ln:        ln,
		merged:    map[names.Name]map[int]map[netaddr.Addr]bool{},
		nodes:     map[string]bool{},
		committed: map[string]bool{},
		stopped:   make(chan struct{}),
	}
	c.wg.Add(1)
	go c.acceptLoop()
	go func() {
		select {
		case <-ctx.Done():
			c.close()
		case <-c.stopped:
		}
	}()
	return c
}

// Addr returns the controller's listen address.
func (c *Controller) Addr() string { return c.ln.Addr().String() }

// SetTracer attaches a tracer recording one commit span per campaign,
// parented onto the node's campaign span via the hello frame's trace
// context. nil detaches it.
func (c *Controller) SetTracer(tr *obs.Tracer) {
	c.mu.Lock()
	c.tracer = tr
	c.mu.Unlock()
}

func (c *Controller) getTracer() *obs.Tracer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tracer
}

// close stops the listener exactly once; Close and ctx cancellation can
// race, and the second closer must see the first's error, not a spurious
// "use of closed network connection".
func (c *Controller) close() error {
	c.closeOnce.Do(func() {
		c.closeErr = c.ln.Close()
		close(c.stopped)
	})
	return c.closeErr
}

// Close stops accepting connections and waits for in-flight handlers.
func (c *Controller) Close() error {
	err := c.close()
	c.wg.Wait()
	return err
}

func (c *Controller) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handle(conn)
		}()
	}
}

func (c *Controller) handle(conn net.Conn) {
	defer conn.Close()
	node := ""
	var tc obs.TraceContext
	var staged []Message
	for {
		m, err := ReadFrame(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				c.recordErr(err)
			}
			c.discard(staged)
			return
		}
		switch m.Type {
		case TypeHello:
			node = m.Node
			tc, _ = obs.ParseTraceContext(m.Trace)
			c.mu.Lock()
			c.nodes[node] = true
			c.mu.Unlock()
		case TypeReport:
			staged = append(staged, m)
		case TypeBye:
			// The commit span parents onto the node's campaign span named
			// in the hello frame — the cross-process leg of the causal tree.
			span := c.getTracer().StartRemote(tc, "vantage-commit", "node", node)
			c.commit(node, staged)
			span.End()
			// Acknowledge only after the commit: the ack is the node's
			// proof that its whole campaign is in the union, so a node
			// whose Close errored knows it must replay.
			if err := WriteFrame(conn, Message{Type: TypeBye, Node: node}); err != nil {
				c.recordErr(err)
			}
			return
		default:
			c.recordErr(errors.New("vantage: unknown frame type " + m.Type))
			c.discard(staged)
			return
		}
	}
}

// commit atomically folds one connection's staged campaign into the merged
// union. First commit per node name wins: a replayed campaign whose earlier
// Bye ack was lost is deduplicated, so retries can never double-count a
// vantage point. Unparseable addresses are recorded as errors here, at
// commit time, and skipped.
func (c *Controller) commit(node string, staged []Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if node != "" {
		if c.committed[node] {
			c.dupCommits++
			return
		}
		c.committed[node] = true
	}
	for _, m := range staged {
		c.ingestLocked(m)
	}
}

// discard drops a dead connection's staged reports. Called for any
// connection that ends without a Bye.
func (c *Controller) discard(staged []Message) {
	if len(staged) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.discarded++
}

func (c *Controller) ingestLocked(m Message) {
	name := names.Name(m.Name)
	c.reports++
	byHour := c.merged[name]
	if byHour == nil {
		byHour = map[int]map[netaddr.Addr]bool{}
		c.merged[name] = byHour
	}
	set := byHour[m.Hour]
	if set == nil {
		set = map[netaddr.Addr]bool{}
		byHour[m.Hour] = set
	}
	for _, s := range m.Addrs {
		a, err := netaddr.ParseAddr(s)
		if err != nil {
			c.errs = append(c.errs, err)
			continue
		}
		set[a] = true
	}
}

func (c *Controller) recordErr(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.errs = append(c.errs, err)
}

// Errs returns protocol errors observed so far.
func (c *Controller) Errs() []error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]error(nil), c.errs...)
}

// ReportCount returns how many report frames have been committed into the
// union. Staged reports from dead connections are never counted.
func (c *Controller) ReportCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reports
}

// NodeCount returns how many distinct vantage points have said hello.
func (c *Controller) NodeCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// MergedSet returns the union address set observed for a name at an hour,
// sorted ascending.
func (c *Controller) MergedSet(name names.Name, hour int) []netaddr.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	set := c.merged[name][hour]
	out := make([]netaddr.Addr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
