package expt

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/par"
)

// runSessionSweepPerCount is the RunSessionSweep that one shared route pass
// replaced, kept verbatim as its oracle (but for the oracle replay): every
// count builds its collector alone, each build its own route pass, and
// replays the events at a fresh memo.
func runSessionSweepPerCount(w *World, counts []int) (SessionSweepResult, error) {
	events := w.Devices.MoveEvents()
	type point struct {
		rate float64
		err  error
	}
	pts := par.Map(w.Cfg.Parallel, len(counts), func(i int) point {
		col, err := buildSweepCollector(w, counts[i], int64(i))
		if err != nil {
			return point{err: err}
		}
		return point{rate: deviceUpdateStats(w.Cfg.memo(col.FIB), events).Rate()}
	})
	var res SessionSweepResult
	for i, p := range pts {
		if p.err != nil {
			return res, p.err
		}
		w.Cfg.Obs.rows(1)
		res.Points = append(res.Points, struct {
			Sessions int
			Rate     float64
		}{counts[i], p.rate})
	}
	return res, nil
}

// buildSweepCollector synthesizes one extra NorthAmerica collector with the
// requested session count, reusing the world's graph and address plan.
func buildSweepCollector(w *World, sessions int, salt int64) (*bgp.Collector, error) {
	spec := bgp.Spec{
		Name:       fmt.Sprintf("sweep-%d", sessions),
		Region:     asgraph.NorthAmerica,
		NumSess:    sessions,
		GlobalFrac: 0.35,
	}
	cols, err := bgp.BuildCollectors(w.Graph, w.Prefixes, []bgp.Spec{spec}, rand.New(rand.NewSource(w.Cfg.Seed+100+salt)))
	if err != nil {
		return nil, err
	}
	return cols[0], nil
}

// TestSessionSweepMatchesPerCountBuilds requires the one-pass sweep to return
// exactly the per-count builds' points, rate for rate, on three quick worlds
// at locind's six counts, sequentially and fanned out; and the same error for
// a count no collector can have.
func TestSessionSweepMatchesPerCountBuilds(t *testing.T) {
	counts := []int{2, 4, 8, 16, 24, 36}
	for _, seed := range []int64{20140817, 7, 424242} {
		cfg := QuickConfig()
		cfg.Seed = seed
		w, err := BuildWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runSessionSweepPerCount(w, counts)
		if err != nil {
			t.Fatal(err)
		}
		for _, parallel := range []int{1, 0} {
			w.Cfg.Parallel = parallel
			got, err := RunSessionSweep(w, counts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d, parallel %d: one route pass %+v, per-count builds %+v", seed, parallel, got.Points, want.Points)
			}
		}
		_, wantErr := runSessionSweepPerCount(w, []int{2, 0})
		if _, err := RunSessionSweep(w, []int{2, 0}); err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Errorf("seed %d: a zero-session count errs %v, per-count builds %v", seed, err, wantErr)
		}
	}
}
