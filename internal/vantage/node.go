package vantage

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"locind/internal/cdn"
	"locind/internal/ingest"
	"locind/internal/netaddr"
	"locind/internal/obs"
	"locind/internal/reliable"
)

// viewSpread is how many nodes a vantage point's partial view is drawn
// across: each address is visible from roughly 1/viewSpread of the nodes.
const viewSpread = 4

// partialView is what node's resolver answers for a name whose full address
// set is full, the locality proxy for CDNs answering with nearby edges only.
// Every address is visible from at least one node and every node sees at
// least one address, so the union over enough nodes reconstructs the full
// set — the property the paper's 74-node deployment relies on.
func partialView(node int, full []netaddr.Addr) []netaddr.Addr {
	if len(full) == 0 {
		return nil
	}
	var out []netaddr.Addr
	for _, a := range full {
		h := fnv.New32a()
		h.Write([]byte{byte(a), byte(a >> 8), byte(a >> 16), byte(a >> 24)})
		// In uint32: as an int, half the hashes are negative on 32-bit
		// platforms, and no node would see those addresses.
		if h.Sum32()%viewSpread == uint32(node%viewSpread) {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		out = append(out, full[node%len(full)])
	}
	return out
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
			errs[idx] = cp.runNode(ctx, idx, rng, tls)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (cp *Campaign) runNode(ctx context.Context, idx int, rng *rand.Rand, tls []cdn.Timeline) error {
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
		body, err := json.Marshal(dayUpload(node, idx, day, tls))
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
// SetAt answers each hour's set in ascending order, which keeps every node's
// view — partialView's index-based fallback included — a pure function of
// the timeline, as same-seed chaos replays rely on.
func dayUpload(node string, idx, day int, tls []cdn.Timeline) Upload {
	up := Upload{Node: node, Day: day}
	for t := range tls {
		tl := &tls[t]
		for h := 24 * day; h < min(24*(day+1), tl.Hours); h++ {
			seen := partialView(idx, tl.SetAt(h))
			addrs := make([]string, len(seen))
			for i, a := range seen {
				addrs[i] = a.String()
			}
			up.Reports = append(up.Reports, Report{Hour: h, Name: string(tl.Site.Name), Addrs: addrs})
		}
	}
	return up
}
