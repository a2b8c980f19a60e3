package simfix

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"time"
)

// Keys collects then sorts — the deterministic idiom the analyzer must
// accept even though the append happens inside the map range.
func Keys(deg map[int]int) []int {
	ks := make([]int, 0, len(deg))
	for n := range deg {
		ks = append(ks, n)
	}
	sort.Ints(ks)
	return ks
}

// Values sorts through a same-package helper, which the analyzer follows
// one level deep.
func Values(deg map[int]int) []int {
	vs := make([]int, 0, len(deg))
	for _, v := range deg {
		vs = append(vs, v)
	}
	sortInts(vs)
	return vs
}

func sortInts(xs []int) { slices.Sort(xs) }

// SimTime threads simulated time explicitly; no wall clock involved.
func SimTime(nowNanos int64) int64 { return nowNanos + int64(time.Millisecond) }

// startupStamp is telemetry, not simulation state, and says so.
func startupStamp() int64 {
	//lint:allow determinism startup banner timestamp, not simulation state
	return time.Now().UnixNano()
}

// SortedCurves is the same closure as it stands today: names collected,
// sorted, then written — the map range feeds only the sorted slice.
func SortedCurves(f *os.File, series map[string][]Point) error {
	if _, err := fmt.Fprintln(f, "series,x,y"); err != nil {
		return err
	}
	// Name order, not map order: two runs must write the same bytes.
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, p := range series[name] {
			if _, err := fmt.Fprintf(f, "%s,%g,%g\n", name, p.X, p.Y); err != nil {
				return err
			}
		}
	}
	return nil
}
