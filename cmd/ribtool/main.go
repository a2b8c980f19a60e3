// Command ribtool inspects and serves the textual RIB dumps the repository
// produces (`locind -out` writes one per collector).
//
// Usage:
//
//	ribtool stats <dump.txt>             decision-process statistics
//	ribtool best  <dump.txt> <addr>      the selected route covering addr
//	ribtool serve <dump.txt> <peer-as>   replay the dump's routes from one
//	                                     peer into a live collector over TCP
//	                                     (a loopback demo of the feed path)
package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"locind/internal/bgp"
	"locind/internal/netaddr"
)

func main() {
	if len(os.Args) < 3 {
		usage()
		os.Exit(2)
	}
	cmd, path := os.Args[1], os.Args[2]
	rib, err := loadRIB(path)
	if err != nil {
		fatal(err)
	}
	switch cmd {
	case "stats":
		stats(rib)
	case "best":
		if len(os.Args) != 4 {
			usage()
			os.Exit(2)
		}
		best(rib, os.Args[3])
	case "serve":
		if len(os.Args) != 4 {
			usage()
			os.Exit(2)
		}
		var peer int
		if _, err := fmt.Sscanf(os.Args[3], "%d", &peer); err != nil {
			fatal(fmt.Errorf("bad peer AS %q", os.Args[3]))
		}
		if err := serve(rib, peer); err != nil {
			fatal(err)
		}
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ribtool stats|best|serve <dump.txt> [addr|peer-as]")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ribtool:", err)
	os.Exit(1)
}

func loadRIB(path string) (*bgp.RIB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return bgp.ReadRIB(f)
}

func stats(rib *bgp.RIB) {
	fib := rib.DeriveFIB()
	fmt.Printf("prefixes:        %d\n", rib.NumPrefixes())
	fmt.Printf("routes:          %d (%.2f per prefix)\n",
		rib.NumRoutes(), float64(rib.NumRoutes())/float64(rib.NumPrefixes()))
	fmt.Printf("next-hop degree: %d\n", fib.NextHopDegree())

	// Port share distribution — the concentration behind Figure 8.
	share := map[int]int{}
	fib.Walk(func(_ netaddr.Prefix, rt bgp.Route) bool {
		share[rt.NextHop]++
		return true
	})
	type ps struct{ port, n int }
	var list []ps
	for p, n := range share {
		list = append(list, ps{p, n})
	}
	// Ties on count must break on port, or map iteration order decides
	// which ports make the top-5 print.
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return list[i].port < list[j].port
	})
	fmt.Println("top ports by prefix share:")
	for i, e := range list {
		if i >= 5 {
			break
		}
		fmt.Printf("  AS%-6d %6d prefixes (%.1f%%)\n",
			e.port, e.n, 100*float64(e.n)/float64(rib.NumPrefixes()))
	}
}

func best(rib *bgp.RIB, addrStr string) {
	a, err := netaddr.ParseAddr(addrStr)
	if err != nil {
		fatal(err)
	}
	fib := rib.DeriveFIB()
	rt, ok := fib.RouteFor(a)
	if !ok {
		fatal(fmt.Errorf("no route covers %v", a))
	}
	fmt.Println(rt)
}

func serve(rib *bgp.RIB, peer int) error {
	lc := bgp.NewLiveCollector("ribtool")
	if err := lc.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	defer lc.Close()
	fmt.Printf("ribtool: live collector on %s\n", lc.Addr())

	fs, err := bgp.DialFeed(lc.Addr(), peer)
	if err != nil {
		return err
	}
	defer fs.Close()
	var batch []bgp.Route
	for _, p := range rib.Prefixes() {
		if rt, ok := rib.Best(p); ok {
			rt.NextHop = peer
			batch = append(batch, rt)
		}
		if len(batch) >= 1000 {
			if err := fs.Announce(batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if err := fs.Announce(batch); err != nil {
			return err
		}
	}
	// Poll until ingested.
	want := rib.NumPrefixes()
	for {
		if errs := lc.Errs(); len(errs) > 0 {
			return errs[0]
		}
		prefixes, _, _ := lc.Snapshot()
		if prefixes >= want {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	prefixes, routes, applied := lc.Snapshot()
	fmt.Printf("ribtool: streamed %d prefixes (%d routes) in %d updates\n", prefixes, routes, applied)
	return nil
}
