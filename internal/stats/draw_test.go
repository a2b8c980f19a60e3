package stats

import (
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"testing"
)

// TestSplitMix64KnownAnswer pins the stream to splitmix64's reference
// output for seed 0 (Vigna's splitmix64.c), so a change to the constants or
// the shifts cannot pass as a different but plausible generator.
func TestSplitMix64KnownAnswer(t *testing.T) {
	var s SplitMix64
	s.Seed(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := s.Uint64(); got != want {
			t.Fatalf("draw %d = %#016x, want %#016x", i, got, want)
		}
	}
	s.Seed(0)
	if got, want := s.Int63(), int64(0xe220a8397b1dcdaf>>1); got != want {
		t.Fatalf("Int63 = %#x, want the first draw shifted right once, %#x", got, want)
	}
}

// ulps returns how many float64 values lie between a and b (both finite
// and of one sign).
func ulps(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x > y {
		return x - y
	}
	return y - x
}

// bigExp returns e**x correctly rounded to a float64: e**(x/2**m) by its
// Taylor series at 256 bits with |x/2**m| < 1/64, squared m times back.
func bigExp(x float64) float64 {
	const prec = 256
	m := 0
	for math.Abs(x) >= math.Ldexp(1, m-6) {
		m++
	}
	r := new(big.Float).SetPrec(prec).SetMantExp(big.NewFloat(x), -m)
	sum := new(big.Float).SetPrec(prec).SetInt64(1)
	term := new(big.Float).SetPrec(prec).SetInt64(1)
	for n := int64(1); ; n++ {
		term.Mul(term, r)
		term.Quo(term, new(big.Float).SetInt64(n))
		if term.Sign() == 0 || term.MantExp(nil)-sum.MantExp(nil) < -prec {
			break
		}
		sum.Add(sum, term)
	}
	for ; m > 0; m-- {
		sum.Mul(sum, sum)
	}
	f, _ := sum.Float64()
	return f
}

// archExp names the GOARCHes whose math.Exp runs assembly (math/exp_asm.go)
// rather than the pure-Go algorithm Exp restates.
var archExp = map[string]bool{"amd64": true, "arm64": true, "s390x": true}

// TestExpWithinOneUlp holds Exp to e**x over the range the generators use
// it on (lognormal draws exp(sigma*z) and Poisson thresholds exp(-mean)),
// then over every x with a finite non-zero result, where the scaling by
// 2**k leaves the normal numbers at both ends. Where math.Exp is the pure-Go
// algorithm (386 among others) Exp must give its bits on both; where it is
// assembly, the two can each be off by under 1 ulp in opposite directions
// (amd64's is, at 3.808087625344257), so they are held 2 ulps apart on the
// first only: amd64's overflows from x ≈ 709.74, short of 709.78.
func TestExpWithinOneUlp(t *testing.T) {
	const (
		overflow  = 7.09782712893383973096e+02
		underflow = -7.45133219101941108420e+02
	)
	rng := rand.New(rand.NewSource(20140817))
	sweeps := []struct {
		n    int
		draw func() float64
		host bool // also compare with math.Exp where it is assembly
	}{
		{100_000, func() float64 { return 3 * rng.NormFloat64() }, true},
		{10_000, func() float64 { return underflow + (overflow-underflow)*rng.Float64() }, false},
	}
	for _, sw := range sweeps {
		maxHost := uint64(0) // pure Go: the same bits
		if archExp[runtime.GOARCH] {
			maxHost = 2
			if !sw.host {
				maxHost = math.MaxUint64
			}
		}
		differ := 0
		for i := 0; i < sw.n; i++ {
			x := sw.draw()
			got := Exp(x)
			if want := bigExp(x); ulps(got, want) > 1 {
				t.Fatalf("Exp(%v) = %v, e**x rounds to %v: %d ulps apart", x, got, want, ulps(got, want))
			}
			host := math.Exp(x)
			if d := ulps(got, host); d > maxHost {
				t.Fatalf("Exp(%v) = %v, math.Exp on %s = %v: %d ulps apart", x, got, runtime.GOARCH, host, d)
			} else if d > 0 {
				differ++
			}
		}
		t.Logf("%d of %d inputs differ from math.Exp on %s", differ, sw.n, runtime.GOARCH)
	}
}

// TestExpSpecialCases checks the inputs Exp answers without the polynomial
// and the last inputs on either side of each cut-off, bit for bit.
func TestExpSpecialCases(t *testing.T) {
	const (
		overflow  = 7.09782712893383973096e+02
		underflow = -7.45133219101941108420e+02
		nearZero  = 1.0 / (1 << 28)
	)
	inf, negZero := math.Inf(1), math.Copysign(0, -1)
	cases := []struct{ x, want float64 }{
		{inf, inf},
		{math.Inf(-1), 0},
		{0, 1},
		{negZero, 1},
		{math.Nextafter(overflow, inf), inf},
		{1000, inf},
		{math.Nextafter(underflow, -inf), 0},
		{-1000, 0},
		// The last finite results: e**overflow is just under MaxFloat64,
		// e**underflow the smallest denormal.
		{overflow, bigExp(overflow)},
		{math.Nextafter(overflow, 0), bigExp(math.Nextafter(overflow, 0))},
		{underflow, math.SmallestNonzeroFloat64},
		{math.Nextafter(underflow, 0), bigExp(math.Nextafter(underflow, 0))},
		// Inside 2**-28 the answer is 1 + x, rounded.
		{math.Nextafter(nearZero, 0), 1 + math.Nextafter(nearZero, 0)},
		{math.Nextafter(-nearZero, 0), 1 + math.Nextafter(-nearZero, 0)},
		{1e-300, 1},
		{-1e-300, 1},
		{math.SmallestNonzeroFloat64, 1},
	}
	for _, c := range cases {
		if got := Exp(c.x); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("Exp(%v) = %v (%#x), want %v (%#x)", c.x, got, math.Float64bits(got), c.want, math.Float64bits(c.want))
		}
	}
	if got := Exp(overflow); math.IsInf(got, 0) {
		t.Errorf("Exp(%v) = %v, want the largest finite result", overflow, got)
	}
	if got := Exp(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Exp(NaN) = %v, want NaN", got)
	}
}
