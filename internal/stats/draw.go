package stats

import "math"

// SplitMix64 is an 8-byte splitmix64 rand.Source64. rand.NewSource's
// default source carries a ~5 KiB state table that Seed fills with 1 841
// divisions, far too heavy to build per site or per user-day, while
// splitmix64 reseeds by assigning one word. The zero value is a source
// seeded with 0.
type SplitMix64 struct{ state uint64 }

// Seed implements rand.Source: the next draw continues from state v.
func (s *SplitMix64) Seed(v int64) { s.state = uint64(v) }

// Uint64 implements rand.Source64.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return Mix64(s.state)
}

// Int63 implements rand.Source.
func (s *SplitMix64) Int63() int64 { return int64(s.Uint64() >> 1) }

// Mix64 is the splitmix64 finalizer: a bijection on 64-bit words that
// spreads every input bit over the output, used to fold seed coordinates.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Exp returns e**x with the same bits on every GOARCH and CPU. math.Exp
// runs per-arch assembly on amd64 (which takes a fused multiply-add path
// when the CPU has one), arm64 and s390x, so its last bit depends on the
// host. This is Go's pure-Go algorithm (math/exp.go) with every product
// rounded by an explicit float64 conversion, which the spec says the
// compiler may not fuse into a multiply-add. The scaling by 2**k is exact,
// or one rounding into the subnormals through math.Ldexp, which has no
// per-arch path. Special cases are math.Exp's.
func Exp(x float64) float64 {
	const (
		ln2Hi = 6.93147180369123816490e-01
		ln2Lo = 1.90821492927058770002e-10
		log2e = 1.44269504088896338700e+00

		overflow  = 7.09782712893383973096e+02
		underflow = -7.45133219101941108420e+02
		nearZero  = 1.0 / (1 << 28) // 2**-28

		p1 = 1.66666666666666657415e-01  /* 0x3FC55555; 0x55555555 */
		p2 = -2.77777777770155933842e-03 /* 0xBF66C16C; 0x16BEBD93 */
		p3 = 6.61375632143793436117e-05  /* 0x3F11566A; 0xAF25DE2C */
		p4 = -1.65339022054652515390e-06 /* 0xBEBBBD41; 0xC5D26BF1 */
		p5 = 4.13813679705723846039e-08  /* 0x3E663769; 0x72BEA4D0 */
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > overflow:
		return math.Inf(1)
	case x < underflow:
		return 0
	case -nearZero < x && x < nearZero:
		return 1 + x
	}

	// Reduce to r = hi - lo, |r| <= ln(2)/2, with x = k*ln2 + r.
	var k int
	switch {
	case x < 0:
		k = int(float64(log2e*x) - 0.5)
	case x > 0:
		k = int(float64(log2e*x) + 0.5)
	}
	hi := x - float64(float64(k)*ln2Hi)
	lo := float64(float64(k) * ln2Lo) // rounded here too: r := hi - lo would fuse it

	// e**r by the Remez polynomial, then scale by 2**k.
	r := hi - lo
	t := float64(r * r)
	c := r - float64(t*(p1+float64(t*(p2+float64(t*(p3+float64(t*(p4+float64(t*p5)))))))))
	y := 1 - ((lo - float64(r*c)/(2-c)) - hi)
	// y is in [0.7, 1.5), so for these k the product is a normal number and
	// the scaling exact; past them math.Ldexp rounds into the subnormals or
	// overflows, as math.Exp does. Both give the same bits for any k where
	// both apply; the product is half the cost.
	if -1021 <= k && k <= 1023 {
		return y * math.Float64frombits(uint64(k+1023)<<52)
	}
	return math.Ldexp(y, k)
}
