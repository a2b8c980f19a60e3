package obs

// quantileFromCum estimates quantile q from a histogram's cumulative bucket
// counts (cum[i] = observations <= bounds[i]; observations above the last
// bound are total - cum[last]). This is the Prometheus histogram_quantile
// estimator: find the bucket holding the q-th observation and interpolate
// linearly inside it, treating observations as uniformly spread across the
// bucket. The first bucket interpolates from zero (bounds are latencies and
// sizes here — nonnegative); the implicit +Inf bucket cannot be
// interpolated and clamps to the highest finite bound.
//
// Pure arithmetic over caller-owned slices: no allocation, so the sampler's
// zero-alloc snapshot path can call it every tick.
func quantileFromCum(bounds []float64, cum []int64, total int64, q float64) float64 {
	if total <= 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	for i, ub := range bounds {
		c := float64(cum[i])
		if c >= rank {
			lo, prev := 0.0, float64(0)
			if i > 0 {
				lo, prev = bounds[i-1], float64(cum[i-1])
			}
			width := c - prev
			if width <= 0 {
				return ub
			}
			return lo + (ub-lo)*((rank-prev)/width)
		}
	}
	// rank falls in the implicit +Inf bucket: clamp.
	return bounds[len(bounds)-1]
}
