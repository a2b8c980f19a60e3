// Command ribtool inspects the textual RIB dumps the repository produces
// (`locind -out` writes one per collector).
//
// Usage:
//
//	ribtool stats <dump.txt>             decision-process statistics
//	ribtool best  <dump.txt> <addr>      the selected route covering addr
package main

import (
	"fmt"
	"os"
	"sort"

	"locind/internal/bgp"
	"locind/internal/netaddr"
)

func main() {
	// The verb and its argument count are checked before the dump is opened.
	args := os.Args[1:]
	isStats := len(args) == 2 && args[0] == "stats"
	isBest := len(args) == 3 && args[0] == "best"
	if !isStats && !isBest {
		fmt.Fprintln(os.Stderr, "usage: ribtool stats <dump.txt> | best <dump.txt> <addr>")
		os.Exit(2)
	}
	rib, err := loadRIB(args[1])
	if err != nil {
		fatal(err)
	}
	if rib.NumPrefixes() == 0 {
		fatal(fmt.Errorf("%s: no routes in dump", args[1]))
	}
	if isStats {
		stats(rib)
	} else {
		best(rib, args[2])
	}
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
