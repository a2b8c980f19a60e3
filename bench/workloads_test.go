package main

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"locind/internal/expt"
)

// tiny is a scale at which every workload finishes in a fraction of a
// second: the same code paths, a world a twentieth the size.
var tiny = sizes{
	world: func() expt.Config {
		cfg := expt.QuickConfig()
		cfg.AS.Tier2 = 30
		cfg.AS.Stubs = 200
		cfg.Device.EyeballsPerRegion = 4
		cfg.Device.OtherWiFiPerRegion = 3
		cfg.Device.Users = 12
		cfg.Device.Days = 3
		cfg.CDN.PopularDomains = 12
		cfg.CDN.UnpopularDomains = 12
		cfg.ContentDays = 3
		cfg.IPlaneTraces = 40
		cfg.IMAPUsers = 60
		cfg.IMAPDays = 3
		return cfg
	},
	names:   64,
	devices: 300,
	calls:   100,
}

// tinyOps is the measured op count each workload makes in the tests.
var tinyOps = map[string]int{"world-build": 2, "eval-all": 3, "gns-update": 200, "gns-lookup": 200, "nomad-soak": 300}

// tinyWorkloads is every workload at tiny scale, with op count, warm-up and
// set-up repetitions cut to match.
func tinyWorkloads() []workload {
	ws := append([]workload(nil), workloads...)
	for i := range ws {
		ws[i].size = tiny
		ws[i].setups = 1
		ws[i].ops = tinyOps[ws[i].name]
		ws[i].warmup = min(ws[i].warmup, 20)
	}
	return ws
}

func runTiny(t *testing.T, w workload, traced bool) result {
	t.Helper()
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	res, err := runEndToEnd(context.Background(), w, newProvenance(42, 60, traced), rec)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return res
}

// Every workload passes its own correctness check, reports every end-to-end
// metric as a positive number, and — run twice from one seed — repeats its
// exact counts.
func TestWorkloadsAtTinyScale(t *testing.T) {
	for _, w := range tinyWorkloads() {
		runs := []result{runTiny(t, w, false)}
		if _, counts := w.new(0, tiny).(interface{ counts(map[string]metric) }); counts {
			runs = append(runs, runTiny(t, w, false))
		}
		for _, r := range runs {
			if !r.Correct || r.Failed != 0 {
				t.Errorf("%s: correct=%v failed=%d: %s", w.name, r.Correct, r.Failed, r.CheckError)
			}
			if r.Attempted != w.ops || r.HitCeiling {
				t.Errorf("%s: attempted %d ops (hit the ceiling: %v), want %d", w.name, r.Attempted, r.HitCeiling, w.ops)
			}
			for _, name := range endToEndOrder {
				if m, ok := r.Metrics[name]; !ok || !(m.Value > 0) || m.Unit == "" {
					t.Errorf("%s: metric %s = %+v, want a positive number with a unit", w.name, name, m)
				}
			}
			if len(r.Metrics) != len(endToEndOrder) {
				t.Errorf("%s: %d end-to-end metrics, want %d", w.name, len(r.Metrics), len(endToEndOrder))
			}
		}
		for name, m := range runs[0].Info {
			if last := runs[len(runs)-1].Info[name]; m.Unit == "count" && last != m {
				t.Errorf("%s: exact count %s differs between same-seed runs: %v vs %v", w.name, name, m, last)
			}
		}
	}
}

// The traced run passes its checks too, and BENCHMARK.json names exactly the
// workloads and metrics the code reports: the driver refuses a benchmark
// whose output and contract disagree.
func TestContractMatchesCode(t *testing.T) {
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Paths, []string{"bench"}) || !reflect.DeepEqual(c.Command, []string{"go", "run", "./bench"}) {
		t.Errorf("command %v paths %v", c.Command, c.Paths)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", c.RunSeconds)
	}
	var got, want []string
	for _, w := range c.Workloads {
		got = append(got, w.Name)
		if code, ok := findWorkload(w.Name); !ok || len(w.Why) > 200 || w.Why == "" || code.why == "" {
			t.Errorf("workload %q: unknown to the code, or why missing or over 200 characters", w.Name)
		}
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", got, want)
	}

	got = nil
	maxBound := 0.0
	for _, m := range c.EndToEnd {
		got = append(got, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v: bad bound or direction", m)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if !reflect.DeepEqual(got, endToEndOrder) {
		t.Errorf("BENCHMARK.json end_to_end %v, code %v", got, endToEndOrder)
	}
	if c.EndToEnd[0].Name != mSetup || c.EndToEnd[0].Bound != maxBound || c.EndToEnd[0].Unit != "s" || c.EndToEnd[0].Better != "lower" {
		t.Errorf("setup_s must be in seconds, lower-is-better, with the largest bound: %+v", c.EndToEnd[0])
	}

	outDir = t.TempDir() // the traced run writes its span files there
	line, err := runTraced(context.Background(), tinyWorkloads(), newProvenance(42, 60, true))
	if err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("traced run: %+v", line)
	}
	got, want = nil, nil
	units := map[string]string{}
	for _, m := range c.PerLayer {
		got = append(got, m.Name)
		units[m.Name] = m.Unit
		if m.Bound != 0 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v: has a bound or no direction", m)
		}
	}
	for name, m := range line.Metrics {
		want = append(want, name)
		if units[name] != m.Unit {
			t.Errorf("per-layer metric %s: unit %q in BENCHMARK.json, %q reported", name, units[name], m.Unit)
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json per_layer and the traced run disagree:\n json %v\n code %v", got, want)
	}
}
