// Live updates: the same device mobility absorbed twice, by a router and by
// a name service.
//
// This example synthesizes one RouteViews-like collector, replays two days of
// device mobility against its FIB (the paper's §6.2 experiment: an event
// costs the router an update only when it displaces the device to another
// output port), and then hands the same events to a loopback GNS cluster as
// one quorum write each — the paper's recommended home for device mobility.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/core"
	"locind/internal/faultnet"
	"locind/internal/gns/cluster"
	"locind/internal/mobility"
	"locind/internal/netaddr"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "liveupdates:", err)
		os.Exit(1)
	}
}

func run() error {
	// Substrate.
	acfg := asgraph.DefaultSynthConfig()
	acfg.Tier2 = 80
	acfg.Stubs = 700
	g, err := asgraph.Synthesize(acfg, rand.New(rand.NewSource(1)))
	if err != nil {
		return err
	}
	pt, err := bgp.NewPrefixTable(g, 1)
	if err != nil {
		return err
	}
	cols, err := bgp.BuildCollectors(g, pt, bgp.RouteViewsSpecs()[:1], rand.New(rand.NewSource(2)))
	if err != nil {
		return err
	}
	col := cols[0]

	// Device mobility against the collector's FIB.
	dcfg := mobility.DefaultDeviceConfig()
	dcfg.Users = 40
	dcfg.Days = 2
	trace, err := mobility.GenerateDeviceTrace(g, pt, dcfg, rand.New(rand.NewSource(3)))
	if err != nil {
		return err
	}
	events := trace.MoveEvents()
	stats := core.NewMoveTable(events).Stats(col.FIB)[0]
	fmt.Printf("device mobility: %d events, %.1f%% displace at %s (%d prefixes, %d ports)\n",
		len(events), stats.Rate()*100, col.Name, col.FIB.Len(), col.FIB.NextHopDegree())

	// The same mobility as resolution-service updates: one quorum write per
	// event, each landing on the one shard that owns the device's name.
	const shards, replicas = 7, 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc, err := cluster.Start(ctx, cluster.Config{Shards: shards, Replicas: replicas}, faultnet.NewEnv(4), nil)
	if err != nil {
		return err
	}
	defer svc.Close()
	client := cluster.NewClient(svc.Addrs(), cluster.ClientConfig{Origin: 1})
	defer client.Close()
	for _, e := range events {
		name := fmt.Sprintf("device-%d", e.User)
		if _, err := client.Update(ctx, name, []netaddr.Addr{e.To}); err != nil {
			return err
		}
	}
	last := events[len(events)-1]
	rec, err := client.Lookup(ctx, fmt.Sprintf("device-%d", last.User))
	if err != nil {
		return err
	}
	fmt.Printf("resolution service: %d updates (exactly one per event), %.1f per node on %d shards x %d replicas; device-%d resolves to %v\n",
		len(events), float64(len(events))/shards, shards, replicas, last.User, rec.Addrs[0])
	fmt.Println("— the paper's conclusion in one run: routers feel a fraction of every event,")
	fmt.Println("  a name service feels exactly one, cheaply distributed.")
	return nil
}
