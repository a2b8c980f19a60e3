package vantage

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"locind/internal/cdn"
	"locind/internal/ingest"
	"locind/internal/names"
	"locind/internal/netaddr"
	"locind/internal/obs"
	"locind/internal/reliable"
)

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
// uploads its campaign a day at a time, one POST /report per day, and
// re-posts a day whose upload failed. A day's body commits whole or not at
// all, and the controller's first-wins rule per (node, day) makes a re-post
// after a lost 204 harmless. A node that exhausts its retries on a day
// stops there: its earlier days stay in the merged union, the rest are
// absent, never partially present.
type Campaign struct {
	// Controller is the controller's host:port.
	Controller string
	Nodes      int
	View       ViewFunc // nil means PartialView(4)
	// Retries is how many extra attempts each day's upload gets before the
	// node is written off.
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
	// per-attempt children) and propagates its TraceContext in the
	// obs.TraceHeader so the controller's commit spans parent onto it.
	Tracer *obs.Tracer

	attempts atomic.Int64
}

// Run executes the campaign over the given timelines: every node resolves
// every name once per simulated hour through its partial view and uploads
// the observations to the controller day by day ("precise time
// synchronization is not necessary" — neither needed here). It returns the
// joined errors of nodes that exhausted their retries on some day.
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
	return errors.Join(errs...)
}

func (cp *Campaign) runNode(ctx context.Context, idx int, rng *rand.Rand, view ViewFunc, tls []cdn.Timeline) error {
	node := fmt.Sprintf("pl%03d", idx)
	span := cp.Tracer.Start("vantage-node", "node", node)
	defer span.End()
	ctx = obs.ContextWith(ctx, span)
	policy := reliable.Policy{
		MaxAttempts: cp.Retries + 1,
		Backoff:     cp.Backoff,
		Rand:        rng,
		Sleep:       cp.Sleep,
		Metrics:     cp.Metrics,
		TraceSpan:   span,
	}
	days := 0
	for i := range tls {
		days = max(days, (tls[i].Hours+23)/24)
	}
	for day := 0; day < days; day++ {
		// The node holds one day's body at a time and posts those same bytes
		// on every attempt.
		body, err := json.Marshal(dayUpload(node, idx, day, view, tls))
		if err != nil {
			return err
		}
		attempts, err := policy.Do(ctx, func(ctx context.Context) error {
			return ingest.Post(ctx, nil, "http://"+cp.Controller+"/report", body)
		})
		cp.attempts.Add(int64(attempts))
		if err != nil {
			return fmt.Errorf("vantage: node %s stopped at day %d: %w", node, day, err)
		}
	}
	return nil
}

// dayUpload gathers one node's observations of every name over one day.
func dayUpload(node string, idx, day int, view ViewFunc, tls []cdn.Timeline) Upload {
	up := Upload{Node: node, Day: day}
	for t := range tls {
		tl := &tls[t]
		replayDay(tl, day, func(hour int, set []netaddr.Addr) {
			seen := view(idx, tl.Site.Name, hour, set)
			addrs := make([]string, len(seen))
			for i, a := range seen {
				addrs[i] = a.String()
			}
			up.Reports = append(up.Reports, Report{Hour: hour, Name: string(tl.Site.Name), Addrs: addrs})
		})
	}
	return up
}

// replayDay materializes the timeline's address set for each hour of one
// day, replaying events from the start rather than calling SetAt per hour.
func replayDay(tl *cdn.Timeline, day int, fn func(hour int, set []netaddr.Addr)) {
	cur := map[netaddr.Addr]bool{}
	for _, a := range tl.Initial {
		cur[a] = true
	}
	ei := 0
	buf := make([]netaddr.Addr, 0, len(cur))
	for h := 0; h < min(24*(day+1), tl.Hours); h++ {
		for ei < len(tl.Events) && tl.Events[ei].Hour == h {
			for _, a := range tl.Events[ei].Removed {
				delete(cur, a)
			}
			for _, a := range tl.Events[ei].Added {
				cur[a] = true
			}
			ei++
		}
		if h < 24*day {
			continue
		}
		buf = buf[:0]
		for a := range cur {
			buf = append(buf, a)
		}
		// Sorted order keeps every node's behaviour — including
		// PartialView's index-based fallback — independent of map
		// iteration, which same-seed chaos replays rely on.
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
		fn(h, buf)
	}
}
