package engine

import (
	"bytes"
	"context"
	"sort"
	"testing"

	"locind/internal/obs"
)

// oldQuartileVerdicts is the soak's original hand-rolled flatness logic,
// kept verbatim (uint64 medians, same windows, same slack) as the oracle
// the migrated obs.SeriesCheck pipeline must agree with.
func oldQuartileVerdicts(heap, queue []uint64) (memFlat, queueFlat bool) {
	quartiles := func(samples []uint64) (qs [4]uint64) {
		n := len(samples)
		if n == 0 {
			return qs
		}
		med := func(s []uint64) uint64 {
			vs := make([]uint64, len(s))
			copy(vs, s)
			sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
			return vs[len(vs)/2]
		}
		q := n / 4
		qs[0] = med(samples[:min(q+1, n)])
		qs[1] = med(samples[q:min(2*q+1, n)])
		qs[2] = med(samples[2*q : min(3*q+1, n)])
		qs[3] = med(samples[n-q-1:])
		return qs
	}
	heapQ := quartiles(heap)
	queueQ := quartiles(queue)
	memSlack := heapQ[2]/4 + 32<<20
	memFlat = heapQ[3] <= heapQ[2]+memSlack
	queueFlat = int64(queueQ[3]) <= 2*int64(queueQ[1])+1024
	return memFlat, queueFlat
}

// soakChecks builds the exact check pair RunSoak binds, for fixture replay.
func soakChecks() (heap, queue obs.SeriesCheck) {
	return obs.Flatness{EarlyQuarter: 2, LateQuarter: 3, RelSlack: 0.25, AbsSlack: 32 << 20},
		obs.Flatness{EarlyQuarter: 1, LateQuarter: 3, RelSlack: 1, AbsSlack: 1024}
}

// TestMigratedSoakChecksMatchOldQuartileVerdicts replays recorded gauge
// shapes — flat, leaking, periodic, ramp-then-plateau, short — through both
// the old quartile code and the obs.Flatness checks RunSoak now uses, and
// requires identical verdicts on every fixture.
func TestMigratedSoakChecksMatchOldQuartileVerdicts(t *testing.T) {
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
		name        string
		heap, queue []uint64
	}{
		{"steady", mkFlat(100, 900*mb), mkFlat(100, 5000)},
		{"heap-leak", mkRamp(100, 100*mb, 4*mb), mkFlat(100, 5000)},
		{"queue-leak", mkFlat(100, 900*mb), mkRamp(100, 100, 300)},
		{"heap-ramp-then-plateau", append(mkRamp(50, 100*mb, 16*mb), mkFlat(50, 900*mb)...), mkFlat(100, 2000)},
		{"queue-periodic", mkFlat(96, 512*mb), mkPeriodic(96, 1000, 40000, 48)},
		{"tiny-run", mkFlat(3, 64*mb), mkFlat(3, 10)},
		{"noisy-but-flat", mkPeriodic(120, 700*mb, 20*mb, 7), mkPeriodic(120, 800, 900, 11)},
		{"empty", nil, nil},
	}
	toF := func(s []uint64) []float64 {
		out := make([]float64, len(s))
		for i, v := range s {
			out[i] = float64(v)
		}
		return out
	}
	heapCheck, queueCheck := soakChecks()
	for _, fx := range fixtures {
		wantMem, wantQueue := oldQuartileVerdicts(fx.heap, fx.queue)
		gotMem, memDetail := heapCheck.Eval(toF(fx.heap))
		gotQueue, queueDetail := queueCheck.Eval(toF(fx.queue))
		if gotMem != wantMem {
			t.Errorf("%s: heap verdict = %v (%s), old code said %v", fx.name, gotMem, memDetail, wantMem)
		}
		if gotQueue != wantQueue {
			t.Errorf("%s: queue verdict = %v (%s), old code said %v", fx.name, gotQueue, queueDetail, wantQueue)
		}
	}
}

// TestSoakSamplerDoesNotPerturbResults: the deterministic soak evidence is
// byte-identical whether the caller wires a registry+sampler (dash on) or
// leaves observability off entirely — the standing obs invariant, extended
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
			reg := obs.NewRegistry()
			smp = obs.NewSampler(reg, 0)
			cfg.Registry = reg
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
