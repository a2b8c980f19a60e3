package expt

import (
	"testing"

	"locind/internal/cdn"
)

// paperShapeSeeds are the seeds TestPaperShapes builds full-scale worlds
// at: the default and seven more.
var paperShapeSeeds = []int64{20140817, 1, 2, 3, 4, 5, 6, 7}

// TestPaperShapes runs Figures 8, 11(b), 11(c) and 12 at full scale over
// eight seeds and checks the paper's claims that held at every one of them
// when measured, each as a bound on the seed's own numbers rather than on
// one reference run (the ranges are over the eight seeds):
//   - Fig 8: Mauritius and Tokyo induce no update at all;
//   - Fig 11(b): the flooding maximum is at least 3× the best-port maximum
//     (4.5–5.1×) and the flooding median at least 2× the best-port median
//     (2.3–3.8×);
//   - Fig 11(c): no router's flooding rate exceeds 2 % (0.75–1.56 %);
//   - Fig 12: the long tail aggregates within [1.5×, 2.5×] (1.92–2.01×).
//
// Two claims are left out because some seed breaks them: best-port at or
// below flooding at every collector, and a session sweep monotone in the
// feed count. A failure names the seed, the collector and the paper's
// sentence. Each seed costs about a second (ten under -race).
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("eight full-scale worlds")
	}
	for _, seed := range paperShapeSeeds {
		cfg := DefaultConfig()
		cfg.Seed = seed
		w, err := BuildWorld(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, r := range RunFig8(w).Routers {
			if (r.Name == "Mauritius" || r.Name == "Tokyo") && r.Rate != 0 {
				t.Errorf("seed %d: Fig 8: %s updates for %.3f%% of device moves; paper: the single-feed collectors see hardly any updates",
					seed, r.Name, r.Rate*100)
			}
		}
		pop := RunFig11bc(w, cdn.Popular)
		fMax, bMax := argmax(pop.Flooding), argmax(pop.BestPort)
		if fMax.Rate < 3*bMax.Rate {
			t.Errorf("seed %d: Fig 11(b): flooding max %.2f%% (%s) is under 3× best-port max %.2f%% (%s); paper: best-port forwarding absorbs content mobility far more cheaply than flooding",
				seed, fMax.Rate*100, fMax.Name, bMax.Rate*100, bMax.Name)
		}
		if f, b := medianRate(pop.Flooding), medianRate(pop.BestPort); f < 2*b {
			t.Errorf("seed %d: Fig 11(b): flooding median %.2f%% is under 2× best-port median %.2f%% over the %d RouteViews collectors; paper: best-port updates far fewer routers than flooding",
				seed, f*100, b*100, len(pop.BestPort))
		}
		if r := argmax(RunFig11bc(w, cdn.Unpopular).Flooding); r.Rate > 0.02 {
			t.Errorf("seed %d: Fig 11(c): %s's flooding rate is %.2f%%, over 2%%; paper: unpopular content induces updates at ≤1%% of routers' events under flooding",
				seed, r.Name, r.Rate*100)
		}
		if agg := RunFig12(w).UnpopularAgg; agg < 1.5 || agg > 2.5 {
			t.Errorf("seed %d: Fig 12: long-tail names aggregate %.2f× at %s, outside [1.5×, 2.5×]; paper: the long tail hardly aggregates at all",
				seed, agg, w.RouteViews[0].Name)
		}
	}
}

// argmax is the router with the highest rate in rs, the first on a tie.
func argmax(rs []RouterRate) RouterRate {
	best := rs[0]
	for _, r := range rs[1:] {
		if r.Rate > best.Rate {
			best = r
		}
	}
	return best
}
