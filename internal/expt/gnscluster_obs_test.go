package expt

import (
	"strings"
	"testing"

	"locind/internal/faultnet"
	"locind/internal/gns"
	"locind/internal/obs"
)

// normalizeTimingNoise zeroes the counters that tally real loopback
// timeouts and retries: they replay only on a quiet host (the Render note
// disclaims them; CI's binary-level comparison diffs digest lines only),
// and under -race alongside sibling tests the 10x slowdown makes them
// diverge between two same-seed runs. What remains — scale line, digests,
// convergence verdict, series-check line — must be byte-identical.
func normalizeTimingNoise(r GNSClusterResult) GNSClusterResult {
	r.SeedRetries = 0
	r.QuorumFailures = 0
	r.StaleServed = 0
	r.FreshServed = 0
	r.Hedges = 0
	r.BreakerRejects = 0
	r.BreakerOpens = 0
	r.Repaired = 0
	r.RepairedSettle = 0
	r.Recommitted = 0
	r.Attempts = 0
	r.Net = faultnet.Stats{}
	return r
}

// TestGNSClusterObservedDoesNotPerturbResults: the quick cluster soak
// renders byte-identical output (timing-noise counters normalized)
// whether the caller wires an external sampler or not, the per-replica
// series the dashboard groups on actually fill in, and the series checks
// hold on series that were sampled.
func TestGNSClusterObservedDoesNotPerturbResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick soak (20k names over loopback UDP); skipped in -short")
	}
	smp := obs.NewSampler(obs.NewRegistry(), 0)
	obsRes, err := RunGNSClusterObserved(7, true, smp)
	if err != nil {
		t.Fatalf("observed soak: %v", err)
	}
	plainRes, err := RunGNSClusterObserved(7, true, nil)
	if err != nil {
		t.Fatalf("plain soak: %v", err)
	}
	if !obsRes.Converged || !plainRes.Converged {
		t.Fatal("soak did not converge")
	}
	if obsRes.BindingHash != plainRes.BindingHash || obsRes.StateHash != plainRes.StateHash {
		t.Fatalf("digests diverged: observed %016x/%016x plain %016x/%016x",
			obsRes.BindingHash, obsRes.StateHash, plainRes.BindingHash, plainRes.StateHash)
	}
	if a, b := normalizeTimingNoise(obsRes).Render(), normalizeTimingNoise(plainRes).Render(); a != b {
		t.Fatalf("render diverged:\nobserved:\n%s\nplain:\n%s", a, b)
	}
	if !obsRes.ChecksOK || len(obsRes.SeriesChecks) == 0 {
		t.Fatalf("series checks: %+v", obsRes.SeriesChecks)
	}
	// A check on a series the sampler never saw passes vacuously, so each
	// one must have read samples.
	for _, c := range obsRes.SeriesChecks {
		if len(smp.Values(c.Series, nil)) == 0 {
			t.Fatalf("check %s passed on %s, a series with no samples", c.Name, c.Series)
		}
	}
	dump := smp.Dump() // what /debug/timeseries would have served
	replicaSeries := 0
	for _, sr := range dump.Series {
		if sr.Labels["replica"] != "" {
			replicaSeries++
		}
	}
	if replicaSeries == 0 {
		t.Fatalf("no per-replica series among the %d sampled", len(dump.Series))
	}
	if dump.Ticks == 0 {
		t.Fatal("sampler never ticked")
	}

	// What stdout reports, /metrics exports: the replica servers' families,
	// and injected-fault counters equal to the printed tallies.
	var expo strings.Builder
	smp.Registry().WritePrometheus(&expo)
	for _, fam := range []string{
		"locind_faultnet_injected_total",
		"locind_gns_requests_total", "locind_gns_lookups_total", "locind_gns_updates_total",
		"locind_gns_errors_total", "locind_gns_inflight_requests", "locind_gns_request_seconds",
	} {
		if !strings.Contains(expo.String(), "# TYPE "+fam+" ") {
			t.Errorf("/metrics has no %s family", fam)
		}
	}
	fm := faultnet.NewMetrics(smp.Registry()) // fetches the run's handles
	if got, want := [2]int64{fm.Dropped.Value(), fm.Partitioned.Value()}, [2]int64{int64(obsRes.Net.Dropped), int64(obsRes.Net.Partitioned)}; got != want || want[1] == 0 {
		t.Errorf("exported dropped/partitioned %v, printed %v", got, want)
	}
	if sm := gns.NewServerMetrics(smp.Registry()); sm.Lookups.Value() == 0 || sm.Updates.Value() == 0 {
		t.Errorf("replicas exported %d lookups and %d updates", sm.Lookups.Value(), sm.Updates.Value())
	}
}
