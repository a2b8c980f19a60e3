package obs

import "sort"

// Series is one sampled time series: a fixed-capacity ring buffer of
// float64 samples filled by a Sampler, one sample per tick. Once the ring
// is full the oldest sample is overwritten, so a Series is constant memory
// no matter how long the run — long soaks evaluate their checks over the
// trailing window the ring retains.
//
// A Series is created and pushed by its Sampler (which serializes access
// under its own mutex); readers go through Sampler.Values / Sampler.Dump,
// never concurrently with a tick.
type Series struct {
	name  string
	pairs []labelPair
	key   string // name{labels} — the exposition identity

	ring[float64] // push is the sampler's per-tick hot path
}

// newSeries builds a ring of the given capacity for one registry series.
func newSeries(name string, pairs []labelPair, key string, capacity int) *Series {
	return &Series{name: name, pairs: pairs, key: key, ring: ring[float64]{buf: make([]float64, 0, capacity)}}
}

// Values appends the retained samples, oldest first, onto dst and returns
// the extended slice (pass nil for a fresh one).
func (s *Series) Values(dst []float64) []float64 {
	if s == nil {
		return dst
	}
	return s.appendTo(dst)
}

// ring is a fixed-capacity buffer that overwrites its oldest element once
// full: the retention of both a Series and a Tracer. Its capacity is
// cap(buf), at least 1, fixed when it is built.
type ring[T any] struct {
	buf  []T // grows to cap(buf), then only indexed
	next int // write cursor; len(buf) until the ring fills
}

// push appends v, overwriting the oldest element once the ring is full.
// The backing array is sized once at construction, so push never
// allocates.
func (r *ring[T]) push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = r.buf[:len(r.buf)+1]
	}
	r.buf[r.next] = v
	if r.next++; r.next == cap(r.buf) {
		r.next = 0
	}
}

// appendTo appends the retained elements, oldest first, onto dst. Before
// the ring fills, next is len(buf) and the first half is empty.
func (r *ring[T]) appendTo(dst []T) []T {
	return append(append(dst, r.buf[r.next:]...), r.buf[:r.next]...)
}

// QuarterMedians splits samples into the four overlapping quarter windows
// the soak flatness checks compare and returns each window's median. The
// window cuts ([0:q+1], [q:2q+1], [2q:3q+1], [n-q-1:n] for q = n/4)
// reproduce the nomad soak's original hand-rolled quartile logic exactly,
// so verdicts migrated onto SeriesCheck match the old code sample for
// sample (pinned by a regression test). Fewer than four samples degrade
// gracefully: the windows overlap and medians repeat. Empty input returns
// zeros.
func QuarterMedians(samples []float64) (qs [4]float64) {
	n := len(samples)
	if n == 0 {
		return qs
	}
	q := n / 4
	qs[0] = median(samples[:min(q+1, n)])
	qs[1] = median(samples[q:min(2*q+1, n)])
	qs[2] = median(samples[2*q : min(3*q+1, n)])
	qs[3] = median(samples[n-q-1:])
	return qs
}

// median returns the upper median (index len/2 of the sorted window) — the
// same estimator the original soak code used.
func median(window []float64) float64 {
	vs := append([]float64(nil), window...)
	sort.Float64s(vs)
	return vs[len(vs)/2]
}
