// Package simfix is a determinism golden fixture shaped like a simulation
// library: every function here is a way nondeterminism has actually leaked
// into this repository's results.
package simfix

import (
	"fmt"
	"os"
	"strings"
	"time"
)

// Tick stamps an event with the host clock instead of simulated time.
func Tick() int64 {
	return time.Now().UnixNano() // want `time\.Now reads the wall clock in a simulation package`
}

// Degrees is the PreferentialAttachment regression shape: the
// degree-sampling pool grows in map iteration order, so the seeded draws
// that index it pick different nodes and every run grows a different graph.
func Degrees(targets map[int]bool, pool []int) []int {
	for t := range targets {
		pool = append(pool, t) // want `append inside range over map`
	}
	return pool
}

// Point is one curve sample, standing in for stats.Point.
type Point struct{ X, Y float64 }

// Curves is expt.Export's curves closure as it stood at PR 16's parent: the
// row groups of fig6.csv, fig7.csv and fig9.csv followed map order, so two
// runs of one seed wrote different bytes.
func Curves(f *os.File, series map[string][]Point) error {
	if _, err := fmt.Fprintln(f, "series,x,y"); err != nil {
		return err
	}
	for name, pts := range series {
		for _, p := range pts {
			if _, err := fmt.Fprintf(f, "%s,%g,%g\n", name, p.X, p.Y); err != nil { // want `Fprintf inside range over map writes bytes in map iteration order`
				return err
			}
		}
	}
	return nil
}

// Labels renders a label set through a Write-family method instead of fmt;
// the order reaches the string all the same.
func Labels(b *strings.Builder, labels map[string]string) {
	for k, v := range labels {
		b.WriteString(k + "=" + v + ",") // want `WriteString inside range over map writes bytes in map iteration order`
	}
}
