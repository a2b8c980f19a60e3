package vantage

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"strings"
	"testing"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/names"
	"locind/internal/netaddr"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Message{Type: TypeReport, Node: "pl001", Hour: 7, Name: "s01.pop001.com", Addrs: []string{"1.2.3.4", "5.6.7.8"}}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Hour != in.Hour || out.Name != in.Name || len(out.Addrs) != 2 {
		t.Fatalf("round trip: %+v", out)
	}
	// Clean EOF between frames.
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("expected io.EOF, got %v", err)
	}
}

func TestFrameErrors(t *testing.T) {
	// Truncated header.
	if _, err := ReadFrame(strings.NewReader("\x00\x00")); err == nil || err == io.EOF {
		t.Fatalf("truncated header: %v", err)
	}
	// Truncated body.
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 10})
	buf.WriteString("abc")
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("truncated body should error")
	}
	// Oversized frame header rejected before allocation.
	var big bytes.Buffer
	big.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&big); err == nil {
		t.Fatal("oversized frame should error")
	}
	// Bad JSON body.
	var bad bytes.Buffer
	bad.Write([]byte{0, 0, 0, 3})
	bad.WriteString("{x}")
	if _, err := ReadFrame(&bad); err == nil {
		t.Fatal("bad JSON should error")
	}
}

func TestControllerBasics(t *testing.T) {
	c, err := StartController(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	n, err := Dial(context.Background(), c.Addr(), "pl000")
	if err != nil {
		t.Fatal(err)
	}
	a1 := netaddr.MustParseAddr("10.0.0.1")
	a2 := netaddr.MustParseAddr("10.0.0.2")
	if err := n.Report(context.Background(), 3, "x.example.com", []netaddr.Addr{a1}); err != nil {
		t.Fatal(err)
	}
	if err := n.Report(context.Background(), 3, "x.example.com", []netaddr.Addr{a2, a1}); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Wait for ingestion: close the controller to join handlers.
	c.Close()
	set := c.MergedSet("x.example.com", 3)
	if len(set) != 2 || set[0] != a1 || set[1] != a2 {
		t.Fatalf("merged = %v", set)
	}
	if c.ReportCount() != 2 || c.NodeCount() != 1 {
		t.Fatalf("counters: %d reports, %d nodes", c.ReportCount(), c.NodeCount())
	}
	if len(c.merged) != 1 || c.merged["x.example.com"] == nil {
		t.Fatalf("merged holds %d names, want x.example.com alone", len(c.merged))
	}
	if len(c.MergedSet("missing", 0)) != 0 {
		t.Fatal("missing name should be empty")
	}
	if len(c.Errs()) != 0 {
		t.Fatalf("unexpected errors: %v", c.Errs())
	}
}

func TestPartialViewProperties(t *testing.T) {
	full := make([]netaddr.Addr, 20)
	for i := range full {
		full[i] = netaddr.MakeAddr(10, 0, byte(i), 1)
	}
	view := PartialView(4)
	union := map[netaddr.Addr]bool{}
	for node := 0; node < 8; node++ {
		sub := view(node, "d", 0, full)
		if len(sub) == 0 {
			t.Fatalf("node %d sees nothing", node)
		}
		if len(sub) == len(full) {
			t.Fatalf("node %d sees everything; view is not partial", node)
		}
		for _, a := range sub {
			union[a] = true
		}
	}
	if len(union) != len(full) {
		t.Fatalf("union over 8 nodes covers %d of %d", len(union), len(full))
	}
	// Determinism.
	v1 := view(3, "d", 5, full)
	v2 := view(3, "d", 5, full)
	if len(v1) != len(v2) {
		t.Fatal("PartialView not deterministic")
	}
	if got := view(0, "d", 0, nil); got != nil {
		t.Fatal("empty set should view empty")
	}
	if PartialView(0) == nil {
		t.Fatal("spread clamp failed")
	}
}

// TestSweepReconstructsGroundTruth runs the whole distributed campaign over
// loopback TCP and checks the controller's merged sets reproduce the CDN
// ground truth, the property the paper's methodology depends on.
func TestSweepReconstructsGroundTruth(t *testing.T) {
	acfg := asgraph.DefaultSynthConfig()
	acfg.Tier2 = 60
	acfg.Stubs = 500
	g, err := asgraph.Synthesize(acfg, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := bgp.NewPrefixTable(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cdn.DefaultConfig()
	ccfg.PopularDomains = 8
	ccfg.UnpopularDomains = 4
	dep, err := cdn.Generate(g, pt, ccfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	tls := dep.Timelines(36, rand.New(rand.NewSource(4)))
	if len(tls) > 60 {
		tls = tls[:60]
	}

	ctrl, err := StartController(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := Sweep(context.Background(), ctrl.Addr(), 10, tls, PartialView(4)); err != nil {
		t.Fatal(err)
	}
	ctrl.Close()

	if ctrl.NodeCount() != 10 {
		t.Fatalf("nodes = %d", ctrl.NodeCount())
	}
	wantReports := 10 * len(tls) * 36
	if ctrl.ReportCount() != wantReports {
		t.Fatalf("reports = %d, want %d", ctrl.ReportCount(), wantReports)
	}
	for i := range tls {
		tl := &tls[i]
		for _, hour := range []int{0, 17, 35} {
			want := tl.SetAt(hour)
			got := ctrl.MergedSet(tl.Site.Name, hour)
			if len(got) != len(want) {
				t.Fatalf("site %q hour %d: merged %d addrs, truth %d", tl.Site.Name, hour, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("site %q hour %d: merged %v != truth %v", tl.Site.Name, hour, got, want)
				}
			}
		}
	}
	if len(ctrl.Errs()) != 0 {
		t.Fatalf("controller errors: %v", ctrl.Errs())
	}
}

func TestSweepErrors(t *testing.T) {
	if err := Sweep(context.Background(), "127.0.0.1:1", 1, nil, nil); err == nil {
		t.Fatal("unreachable controller should error")
	}
	ctrl, err := StartController(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if err := Sweep(context.Background(), ctrl.Addr(), 0, nil, nil); err == nil {
		t.Fatal("zero nodes should error")
	}
}

func TestControllerRejectsGarbage(t *testing.T) {
	ctrl, err := StartController(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n, err := Dial(context.Background(), ctrl.Addr(), "pl000")
	if err != nil {
		t.Fatal(err)
	}
	// Unknown frame type terminates the connection and records an error.
	if err := WriteFrame(n.conn, Message{Type: "nonsense"}); err != nil {
		t.Fatal(err)
	}
	n.conn.Close()
	ctrl.Close()
	if len(ctrl.Errs()) == 0 {
		t.Fatal("garbage frame should record an error")
	}
}

func TestControllerBadAddrInReport(t *testing.T) {
	ctrl, err := StartController(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n, err := Dial(context.Background(), ctrl.Addr(), "pl000")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(n.conn, Message{Type: TypeReport, Name: "d", Hour: 0, Addrs: []string{"not-an-ip", "1.2.3.4"}}); err != nil {
		t.Fatal(err)
	}
	n.Close(context.Background())
	ctrl.Close()
	if got := ctrl.MergedSet(names.Name("d"), 0); len(got) != 1 {
		t.Fatalf("valid addr should survive: %v", got)
	}
	if len(ctrl.Errs()) == 0 {
		t.Fatal("bad addr should record an error")
	}
}

// TestMeasuredTimelinesMatchTruth closes the measurement loop: timelines
// reconstructed from the controller's merged observations must be
// event-for-event identical to the CDN ground truth, so every downstream
// update-cost number could equally be computed from the measured data.
func TestMeasuredTimelinesMatchTruth(t *testing.T) {
	acfg := asgraph.DefaultSynthConfig()
	acfg.Tier2 = 60
	acfg.Stubs = 500
	g, err := asgraph.Synthesize(acfg, rand.New(rand.NewSource(78)))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := bgp.NewPrefixTable(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cdn.DefaultConfig()
	ccfg.PopularDomains = 6
	ccfg.UnpopularDomains = 3
	dep, err := cdn.Generate(g, pt, ccfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	hours := 48
	truth := dep.Timelines(hours, rand.New(rand.NewSource(6)))
	if len(truth) > 40 {
		truth = truth[:40]
	}

	ctrl, err := StartController(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := Sweep(context.Background(), ctrl.Addr(), 8, truth, PartialView(4)); err != nil {
		t.Fatal(err)
	}
	ctrl.Close()

	sites := make([]cdn.Site, len(truth))
	for i := range truth {
		sites[i] = truth[i].Site
	}
	measured, err := ctrl.MeasuredTimelines(sites, hours)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		want, got := &truth[i], &measured[i]
		if got.EventCount() != want.EventCount() {
			t.Fatalf("site %q: measured %d events, truth %d",
				want.Site.Name, got.EventCount(), want.EventCount())
		}
		for _, h := range []int{0, hours / 3, hours - 1} {
			ws, gs := want.SetAt(h), got.SetAt(h)
			if len(ws) != len(gs) {
				t.Fatalf("site %q hour %d: set sizes %d vs %d", want.Site.Name, h, len(gs), len(ws))
			}
			for j := range ws {
				if ws[j] != gs[j] {
					t.Fatalf("site %q hour %d: sets diverge", want.Site.Name, h)
				}
			}
		}
	}
}

func TestMeasuredTimelineErrors(t *testing.T) {
	ctrl, err := StartController(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if _, err := ctrl.MeasuredTimeline(cdn.Site{Name: "ghost"}, 10); err == nil {
		t.Error("unobserved site should error")
	}
	if _, err := ctrl.MeasuredTimeline(cdn.Site{Name: "x"}, 0); err == nil {
		t.Error("zero hours should error")
	}
}
