package engine

import (
	"bytes"
	"context"
	"testing"

	"locind/internal/obs"
)

// TestSoakChecksFixtureVerdicts replays recorded gauge shapes — flat,
// leaking, periodic, ramp-then-plateau, short — through the flatness checks
// RunSoak binds and pins each verdict. The wants are what the soak's
// original hand-rolled quartile code said for the same fixtures (window
// parity is pinned by obs.TestQuarterMediansMatchesOldSoakWindows); the slow
// heap leak stays inside the heap check's slack, the steep one does not.
func TestSoakChecksFixtureVerdicts(t *testing.T) {
	const mb = 1 << 20
	mkRamp := func(n int, start, step uint64) []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = start + uint64(i)*step
		}
		return s
	}
	mkFlat := func(n int, v uint64) []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	mkPeriodic := func(n int, base, amp uint64, period int) []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = base + amp*uint64(i%period)/uint64(period)
		}
		return s
	}
	fixtures := []struct {
		name               string
		heap, queue        []uint64
		memFlat, queueFlat bool
	}{
		{"steady", mkFlat(100, 900*mb), mkFlat(100, 5000), true, true},
		{"heap-leak", mkRamp(100, 100*mb, 4*mb), mkFlat(100, 5000), true, true},
		{"heap-steep-leak", mkRamp(100, 100*mb, 8*mb), mkFlat(100, 5000), false, true},
		{"queue-leak", mkFlat(100, 900*mb), mkRamp(100, 100, 300), true, false},
		{"heap-ramp-then-plateau", append(mkRamp(50, 100*mb, 16*mb), mkFlat(50, 900*mb)...), mkFlat(100, 2000), true, true},
		{"queue-periodic", mkFlat(96, 512*mb), mkPeriodic(96, 1000, 40000, 48), true, true},
		{"tiny-run", mkFlat(3, 64*mb), mkFlat(3, 10), true, true},
		{"noisy-but-flat", mkPeriodic(120, 700*mb, 20*mb, 7), mkPeriodic(120, 800, 900, 11), true, true},
		{"empty", nil, nil, true, true},
	}
	toF := func(s []uint64) []float64 {
		out := make([]float64, len(s))
		for i, v := range s {
			out[i] = float64(v)
		}
		return out
	}
	for _, fx := range fixtures {
		if got, detail := soakHeapFlat.Eval(toF(fx.heap)); got != fx.memFlat {
			t.Errorf("%s: heap verdict = %v (%s), want %v", fx.name, got, detail, fx.memFlat)
		}
		if got, detail := soakQueueFlat.Eval(toF(fx.queue)); got != fx.queueFlat {
			t.Errorf("%s: queue verdict = %v (%s), want %v", fx.name, got, detail, fx.queueFlat)
		}
	}
}

// TestSoakSamplerDoesNotPerturbResults: the deterministic soak evidence is
// byte-identical whether the caller wires a sampler (dash on) or leaves
// observability off entirely — the standing obs invariant, extended
// to the time-series layer.
func TestSoakSamplerDoesNotPerturbResults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak over real TCP; skipped in -short")
	}
	run := func(observed bool) (*SoakReport, string, *obs.Sampler) {
		var buf bytes.Buffer
		cfg := SoakConfig{Devices: 250, Days: 2, Seed: 11, Shards: 4, Out: &buf}
		var smp *obs.Sampler
		if observed {
			smp = obs.NewSampler(obs.NewRegistry(), 0)
			cfg.Sampler = smp
		}
		rep, err := RunSoak(context.Background(), cfg)
		if err != nil {
			t.Fatalf("soak (observed=%v) failed: %v\n%s", observed, err, buf.String())
		}
		return rep, buf.String(), smp
	}
	repOn, outOn, smp := run(true)
	repOff, outOff, _ := run(false)
	if repOn.Digest != repOff.Digest || repOn.Records != repOff.Records ||
		repOn.Batches != repOff.Batches || repOn.Events != repOff.Events {
		t.Fatalf("sampler perturbed the soak:\non:  %+v\noff: %+v", repOn, repOff)
	}
	if lineOn, lineOff := soakDigestLine(outOn), soakDigestLine(outOff); lineOn == "" || lineOn != lineOff {
		t.Fatalf("digest lines diverged:\non:  %q\noff: %q", lineOn, lineOff)
	}
	// The flatness evidence really came from the series checks.
	if len(repOn.SeriesChecks) < 2 {
		t.Fatalf("SeriesChecks = %+v, want the heap and queue checks", repOn.SeriesChecks)
	}
	names := map[string]bool{}
	for _, c := range repOn.SeriesChecks {
		names[c.Name] = true
	}
	if !names[SoakHeapCheck] || !names[SoakQueueCheck] {
		t.Fatalf("SeriesChecks missing soak checks: %+v", repOn.SeriesChecks)
	}
	// A check on a series the sampler never saw passes vacuously, so each
	// one must have read samples.
	for _, c := range repOn.SeriesChecks {
		if len(smp.Values(c.Series, nil)) == 0 {
			t.Fatalf("check %s passed on %s, a series with no samples", c.Name, c.Series)
		}
	}
	// The external sampler saw per-shard series (the dashboard's food).
	dump := smp.Dump()
	shardSeries := 0
	for _, sr := range dump.Series {
		if sr.Labels["shard"] != "" {
			shardSeries++
		}
	}
	if shardSeries == 0 {
		t.Fatalf("no per-shard series among the %d sampled", len(dump.Series))
	}
}
