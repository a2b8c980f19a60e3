// Package simfix is a determinism golden fixture shaped like a simulation
// library: every function here is a way nondeterminism has actually leaked
// into this repository's results.
package simfix

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"
)

// Tick stamps an event with the host clock instead of simulated time.
func Tick() int64 {
	return time.Now().UnixNano() // want `time\.Now reads the wall clock in a simulation package`
}

// Jitter draws from the hidden process-wide generator, so no seed can
// replay it.
func Jitter() float64 {
	return rand.Float64() // want `rand\.Float64 draws from global process-wide state`
}

// Degrees is the PreferentialAttachment regression shape: the RNG draw is
// consumed in map iteration order and the result slice records that order,
// so every run grows a different graph from the same seed.
func Degrees(deg map[int]int, rng *rand.Rand) []int {
	var out []int
	for n := range deg {
		out = append(out, n+rng.Intn(3)) // want `append inside range over map` `RNG draw inside range over map`
	}
	return out
}

// Publish streams map entries to a consumer, which observes random order.
func Publish(deg map[int]int, ch chan<- int) {
	for n := range deg {
		ch <- n // want `channel send inside range over map`
	}
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
