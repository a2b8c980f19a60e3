// Command gnsd boots a sharded, replicated GNS cluster on loopback — the
// location-independent name service of DESIGN.md §9 — and serves it until
// interrupted. (The chaos soak against such a cluster is an experiment:
// locind gns-cluster.)
//
// Usage:
//
//	gnsd [flags]
//
// Flags:
//
//	-shards N    consistent-hash shard count (default 3)
//	-replicas N  replication factor per shard (default 3)
//	-seed N      fault/randomness seed (default 1)
//	-obs.addr    serve /metrics and /debug/traces on this address
//	             (empty = disabled)
//
// gnsd prints the replica address grid, one shard per line, and blocks
// until SIGINT/SIGTERM. Clients route with cluster.NewClient over exactly
// that grid, and Close the client to release its pooled sockets.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"locind/internal/faultnet"
	"locind/internal/gns"
	"locind/internal/gns/cluster"
	"locind/internal/ingest"
	"locind/internal/obs"
)

func main() {
	var (
		shards   = flag.Int("shards", 3, "consistent-hash shard count")
		replicas = flag.Int("replicas", 3, "replication factor per shard")
		seed     = flag.Int64("seed", 1, "fault/randomness seed")
		obsAddr  = flag.String("obs.addr", "", "serve /metrics and /debug/traces on this address (empty = disabled)")
	)
	flag.Parse()
	if err := run(*shards, *replicas, *seed, *obsAddr); err != nil {
		fmt.Fprintln(os.Stderr, "gnsd:", err)
		os.Exit(1)
	}
}

func run(shards, replicas int, seed int64, obsAddr string) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var sm *gns.ServerMetrics
	if obsAddr != "" {
		reg := obs.NewRegistry()
		sm = gns.NewServerMetrics(reg)
		// The one place the serve loop may get a wall clock from: request
		// latency and span stamps are both measured from here.
		begin := time.Now()
		sm.Clock = func() time.Duration { return time.Since(begin) }
		sm.Tracer = obs.NewTracer(seed, 0)
		sm.Tracer.SetNow(sm.Clock)
		smp := obs.NewSampler(reg, 0)
		smp.Pre(obs.RuntimeSampler(reg))
		go smp.Run(ctx)
		ln, err := net.Listen("tcp", obsAddr)
		if err != nil {
			return err
		}
		defer ln.Close()
		go ingest.Serve(ln, obs.NewHandler(smp, sm.Tracer)) //nolint:errcheck // Accept's error once ln closes
		fmt.Fprintf(os.Stderr, "gnsd: introspection on http://%s/metrics (dashboard: /debug/dash)\n", ln.Addr())
	}

	c, err := cluster.Start(ctx, cluster.Config{Shards: shards, Replicas: replicas}, faultnet.NewEnv(seed), sm)
	if err != nil {
		return err
	}
	defer c.Close()

	fmt.Printf("gnsd: %d shards x %d replicas\n", shards, replicas)
	for s, row := range c.Addrs() {
		fmt.Printf("shard %d: %s\n", s, strings.Join(row, " "))
	}
	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "gnsd: shutting down")
	return nil
}
