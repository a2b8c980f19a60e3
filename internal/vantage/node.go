package vantage

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"locind/internal/cdn"
	"locind/internal/names"
	"locind/internal/netaddr"
	"locind/internal/obs"
	"locind/internal/reliable"
)

// Node is one vantage point: a TCP client streaming hourly resolution
// observations to the controller. Nothing a node sends becomes visible in
// the merged union until its Bye commits the whole campaign, so a node that
// dies mid-stream leaves no trace.
type Node struct {
	Name string
	conn net.Conn
}

// Dial connects a vantage point to the controller and introduces itself.
// ctx bounds the connection attempt and the hello frame.
func Dial(ctx context.Context, addr, name string) (*Node, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("vantage: dial controller: %w", err)
	}
	n := &Node{Name: name, conn: conn}
	if err := n.applyDeadline(ctx); err != nil {
		conn.Close()
		return nil, err
	}
	// The hello frame carries the span riding on ctx (the node's campaign
	// span when the caller traces), so the controller's commit span can
	// parent onto it.
	hello := Message{Type: TypeHello, Node: name, Trace: obs.FromContext(ctx).Context().Encode()}
	if err := WriteFrame(conn, hello); err != nil {
		conn.Close()
		return nil, err
	}
	return n, nil
}

// applyDeadline projects the context's deadline onto the connection so frame
// I/O cannot outlive the caller's budget.
func (n *Node) applyDeadline(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok {
		return n.conn.SetDeadline(d)
	}
	return n.conn.SetDeadline(time.Time{})
}

// Report sends one (name, hour) observation. The controller stages it until
// Close commits the campaign.
func (n *Node) Report(ctx context.Context, hour int, name names.Name, addrs []netaddr.Addr) error {
	if err := n.applyDeadline(ctx); err != nil {
		return err
	}
	strs := make([]string, len(addrs))
	for i, a := range addrs {
		strs[i] = a.String()
	}
	return WriteFrame(n.conn, Message{
		Type:  TypeReport,
		Node:  n.Name,
		Hour:  hour,
		Name:  string(name),
		Addrs: strs,
	})
}

// Close says goodbye, waits for the controller's acknowledgement — which is
// the commit point: only now do this connection's reports enter the merged
// union — and closes the connection.
func (n *Node) Close(ctx context.Context) error {
	defer n.conn.Close()
	if err := n.applyDeadline(ctx); err != nil {
		return err
	}
	if err := WriteFrame(n.conn, Message{Type: TypeBye, Node: n.Name}); err != nil {
		return err
	}
	ack, err := ReadFrame(n.conn)
	if err != nil {
		return fmt.Errorf("vantage: waiting for bye ack: %w", err)
	}
	if ack.Type != TypeBye {
		return fmt.Errorf("vantage: unexpected ack frame %q", ack.Type)
	}
	return nil
}

// ViewFunc models what one vantage point's resolver answer looks like: the
// subset of the full address set visible from that node at that hour.
type ViewFunc func(nodeIdx int, name names.Name, hour int, full []netaddr.Addr) []netaddr.Addr

// PartialView is the default locality proxy: each address is visible from
// roughly 1/spread of the nodes (CDNs answer with nearby edges only), with
// the deterministic guarantee that every address is visible from at least
// one node and every node sees at least one address, so the union over
// enough nodes reconstructs the full set — the property the paper's 74-node
// deployment relies on.
func PartialView(spread int) ViewFunc {
	if spread < 1 {
		spread = 1
	}
	return func(nodeIdx int, name names.Name, hour int, full []netaddr.Addr) []netaddr.Addr {
		if len(full) == 0 {
			return nil
		}
		var out []netaddr.Addr
		for _, a := range full {
			h := fnv.New32a()
			var buf [4]byte
			buf[0] = byte(a)
			buf[1] = byte(a >> 8)
			buf[2] = byte(a >> 16)
			buf[3] = byte(a >> 24)
			h.Write(buf[:])
			if int(h.Sum32())%spread == nodeIdx%spread {
				out = append(out, a)
			}
		}
		if len(out) == 0 {
			out = append(out, full[nodeIdx%len(full)])
		}
		return out
	}
}

// Campaign describes one distributed measurement run with its reliability
// policy. Nodes run concurrently, mirroring the real deployment; each node
// that fails mid-campaign is redialed and replays its whole campaign from
// scratch — commit-on-Bye makes the replay invisible-until-complete, and the
// controller's first-commit-wins rule makes a replay after a lost ack
// harmless. A node that exhausts its retries is excluded from the merged
// union without corrupting it.
type Campaign struct {
	Controller string
	Nodes      int
	View       ViewFunc // nil means PartialView(4)
	// Retries is how many extra full redial-and-replay attempts a failed
	// node gets before it is written off.
	Retries int
	// Backoff schedules pauses between a node's attempts.
	Backoff reliable.Backoff
	// Rand seeds per-node jitter; nil disables jitter. Seeds are drawn
	// up front so concurrent nodes never share the generator.
	Rand *rand.Rand
	// Sleep overrides the inter-attempt wait (virtual clock hook).
	Sleep func(ctx context.Context, d time.Duration) error
	// Metrics, when non-nil, counts every node's retry-loop activity into
	// shared obs handles.
	Metrics *reliable.Metrics
	// Tracer, when non-nil, records one span per node campaign (with
	// per-attempt children) and propagates its TraceContext in the hello
	// frame so the controller's commit span parents onto it.
	Tracer *obs.Tracer

	attempts atomic.Int64
}

// Run executes the campaign over the given timelines: every node resolves
// every name once per simulated hour through its partial view and streams
// the observations to the controller ("precise time synchronization is not
// necessary" — neither needed here). It returns the joined errors of nodes
// that exhausted their retries; their observations are absent from the
// merged union, never partially present.
func (cp *Campaign) Run(ctx context.Context, tls []cdn.Timeline) error {
	if cp.Nodes < 1 {
		return fmt.Errorf("vantage: need at least one node")
	}
	view := cp.View
	if view == nil {
		view = PartialView(4)
	}
	var seeds []int64
	if cp.Rand != nil {
		seeds = make([]int64, cp.Nodes)
		for i := range seeds {
			seeds[i] = cp.Rand.Int63()
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, cp.Nodes)
	for i := 0; i < cp.Nodes; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			var rng *rand.Rand
			if seeds != nil {
				rng = rand.New(rand.NewSource(seeds[idx]))
			}
			errs[idx] = cp.runNode(ctx, idx, rng, view, tls)
		}(i)
	}
	wg.Wait()
	var failed []error
	for idx, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Errorf("vantage: node pl%03d excluded from union: %w", idx, err))
		}
	}
	return errors.Join(failed...)
}

func (cp *Campaign) runNode(ctx context.Context, idx int, rng *rand.Rand, view ViewFunc, tls []cdn.Timeline) error {
	span := cp.Tracer.Start("vantage-node", "node", fmt.Sprintf("pl%03d", idx))
	defer span.End()
	policy := reliable.Policy{
		MaxAttempts: cp.Retries + 1,
		Backoff:     cp.Backoff,
		Rand:        rng,
		Sleep:       cp.Sleep,
		Metrics:     cp.Metrics,
		TraceSpan:   span,
	}
	attempts, err := policy.Do(obs.ContextWith(ctx, span), func(ctx context.Context) error {
		return cp.attempt(ctx, idx, view, tls)
	})
	cp.attempts.Add(int64(attempts))
	return err
}

// attempt is one full campaign for one node. Any failure abandons the
// connection without a Bye — to the controller that is exactly a node dying
// mid-campaign, so everything staged on the connection is discarded and the
// next attempt starts from a blank slate.
func (cp *Campaign) attempt(ctx context.Context, idx int, view ViewFunc, tls []cdn.Timeline) error {
	node, err := Dial(ctx, cp.Controller, fmt.Sprintf("pl%03d", idx))
	if err != nil {
		return err
	}
	defer node.conn.Close()
	for t := range tls {
		tl := &tls[t]
		err := replayHourly(tl, func(hour int, set []netaddr.Addr) error {
			return node.Report(ctx, hour, tl.Site.Name, view(idx, tl.Site.Name, hour, set))
		})
		if err != nil {
			return err
		}
	}
	return node.Close(ctx)
}

// replayHourly materializes the timeline's address set hour by hour without
// quadratic SetAt calls.
func replayHourly(tl *cdn.Timeline, fn func(hour int, set []netaddr.Addr) error) error {
	cur := map[netaddr.Addr]bool{}
	for _, a := range tl.Initial {
		cur[a] = true
	}
	ei := 0
	buf := make([]netaddr.Addr, 0, len(cur))
	for h := 0; h < tl.Hours; h++ {
		for ei < len(tl.Events) && tl.Events[ei].Hour == h {
			for _, a := range tl.Events[ei].Removed {
				delete(cur, a)
			}
			for _, a := range tl.Events[ei].Added {
				cur[a] = true
			}
			ei++
		}
		buf = buf[:0]
		for a := range cur {
			buf = append(buf, a)
		}
		// Sorted order keeps every node's behaviour — including
		// PartialView's index-based fallback — independent of map
		// iteration, which same-seed chaos replays rely on.
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
		if err := fn(h, buf); err != nil {
			return err
		}
	}
	return nil
}
