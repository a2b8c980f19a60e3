package obs

import (
	"fmt"
	"math"
)

// SeriesCheck asserts the *shape* of a sampled series — flat, monotone,
// bounded, rate-limited — rather than a single end-of-run value. The nomad
// soak's flatness evidence and /healthz's degraded status are both built on
// these. Eval is handed the retained samples oldest first and returns the
// verdict plus a human-readable detail line.
//
// Shared semantics, pinned by tests:
//
//   - Too little data passes vacuously ("insufficient samples" in the
//     detail): a daemon that just booted must not report degraded before
//     its rings have anything to say.
//   - Any non-finite sample (NaN or ±Inf — e.g. a histogram sum that
//     absorbed a NaN observation) fails the check outright with the sample
//     index in the detail. A series that cannot be interpreted must never
//     pass a shape assertion.
type SeriesCheck interface {
	// Kind returns the check's short kind tag ("flat", "monotone",
	// "bounded") for reports.
	Kind() string
	// Eval judges the samples (oldest first).
	Eval(samples []float64) (ok bool, detail string)
}

// CheckResult is one evaluated check, as exposed on /debug/timeseries, in
// obsreport output, and behind /healthz.
type CheckResult struct {
	Name   string `json:"name"`
	Series string `json:"series"`
	Kind   string `json:"kind"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// nonFinite returns the index of the first non-finite sample, or -1.
func nonFinite(samples []float64) int {
	for i, v := range samples {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return i
		}
	}
	return -1
}

// checkFinite is the shared non-finite guard; ok=true means keep going.
func checkFinite(samples []float64) (bool, string) {
	if i := nonFinite(samples); i >= 0 {
		return false, fmt.Sprintf("non-finite sample %v at index %d", samples[i], i)
	}
	return true, ""
}

// Flatness asserts that a series has stopped growing: the median of one
// quarter window must not exceed the median of an earlier quarter window by
// more than the configured slack. Which quarters are compared is the
// caller's domain knowledge — a ramp-then-plateau gauge compares the second
// half's quarters (2 vs 3), a periodic gauge compares windows one full
// cycle apart (see the nomad soak for both worked examples).
type Flatness struct {
	// EarlyQuarter and LateQuarter index into QuarterMedians (0..3).
	EarlyQuarter, LateQuarter int
	// RelSlack scales the early median into allowed growth (0.25 = +25%).
	RelSlack float64
	// AbsSlack is a constant allowance absorbing quantization and noise.
	AbsSlack float64
}

// Kind implements SeriesCheck.
func (f Flatness) Kind() string { return "flat" }

// Eval implements SeriesCheck. Fewer than four samples pass vacuously.
func (f Flatness) Eval(samples []float64) (bool, string) {
	if ok, detail := checkFinite(samples); !ok {
		return false, detail
	}
	if len(samples) < 4 {
		return true, fmt.Sprintf("insufficient samples (%d < 4)", len(samples))
	}
	qs := QuarterMedians(samples)
	early, late := qs[f.EarlyQuarter], qs[f.LateQuarter]
	allowed := early + early*f.RelSlack + f.AbsSlack
	return late <= allowed, fmt.Sprintf("early(q%d)=%g late(q%d)=%g allowed=%g",
		f.EarlyQuarter, early, f.LateQuarter, late, allowed)
}

// MonotoneNonDecreasing asserts the series never goes down — the shape of
// every well-behaved counter sample stream (a decrease means a lost or
// restarted source).
type MonotoneNonDecreasing struct{}

// Kind implements SeriesCheck.
func (MonotoneNonDecreasing) Kind() string { return "monotone" }

// Eval implements SeriesCheck.
func (MonotoneNonDecreasing) Eval(samples []float64) (bool, string) {
	if ok, detail := checkFinite(samples); !ok {
		return false, detail
	}
	for i := 1; i < len(samples); i++ {
		if samples[i] < samples[i-1] {
			return false, fmt.Sprintf("decreased %g -> %g at index %d", samples[i-1], samples[i], i)
		}
	}
	return true, fmt.Sprintf("nondecreasing over %d samples", len(samples))
}

// Bounded asserts every sample stays within [Min, Max].
type Bounded struct {
	Min, Max float64
}

// Kind implements SeriesCheck.
func (Bounded) Kind() string { return "bounded" }

// Eval implements SeriesCheck.
func (b Bounded) Eval(samples []float64) (bool, string) {
	if ok, detail := checkFinite(samples); !ok {
		return false, detail
	}
	for i, v := range samples {
		if v < b.Min || v > b.Max {
			return false, fmt.Sprintf("sample %g at index %d outside [%g, %g]", v, i, b.Min, b.Max)
		}
	}
	return true, fmt.Sprintf("%d samples within [%g, %g]", len(samples), b.Min, b.Max)
}
