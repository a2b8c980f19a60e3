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

	buf  []float64
	next int
	full bool
}

// newSeries builds a ring of the given capacity for one registry series.
func newSeries(name string, pairs []labelPair, key string, capacity int) *Series {
	return &Series{name: name, pairs: pairs, key: key, buf: make([]float64, 0, capacity)}
}

// push appends one sample, overwriting the oldest once the ring is full.
// This is the sampler's per-tick hot path and must stay allocation-free:
// the backing array is sized once at construction and only indexed here.
func (s *Series) push(v float64) {
	if !s.full && len(s.buf) < cap(s.buf) {
		s.buf = s.buf[:len(s.buf)+1]
	}
	s.buf[s.next] = v
	s.next++
	if s.next == cap(s.buf) {
		s.next = 0
		s.full = true
	}
}

// Values appends the retained samples, oldest first, onto dst and returns
// the extended slice (pass nil for a fresh one).
func (s *Series) Values(dst []float64) []float64 {
	if s == nil {
		return dst
	}
	if !s.full {
		return append(dst, s.buf...)
	}
	dst = append(dst, s.buf[s.next:]...)
	return append(dst, s.buf[:s.next]...)
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
