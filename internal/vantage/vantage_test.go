package vantage

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/netaddr"
)

// serve runs ctrl on a loopback httptest server and returns its host:port,
// the form Campaign.Controller takes. The server closes with the test.
func serve(t *testing.T, ctrl *Controller) string {
	t.Helper()
	ts := httptest.NewServer(ctrl)
	t.Cleanup(ts.Close)
	return ts.Listener.Addr().String()
}

// post sends body to ctrl in process and returns the status code.
func post(ctrl *Controller, method, path string, body []byte) int {
	rec := httptest.NewRecorder()
	ctrl.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code
}

// mustJSON marshals an upload for posting.
func mustJSON(t *testing.T, up Upload) []byte {
	t.Helper()
	b, err := json.Marshal(up)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestControllerBasics(t *testing.T) {
	c := NewController()
	body := mustJSON(t, Upload{Node: "pl000", Day: 0, Reports: []Report{
		{Hour: 3, Name: "x.example.com", Addrs: []string{"10.0.0.1"}},
		{Hour: 3, Name: "x.example.com", Addrs: []string{"10.0.0.2", "10.0.0.1"}},
	}})
	if code := post(c, http.MethodPost, "/report", body); code != http.StatusNoContent {
		t.Fatalf("POST /report answered %d, want 204", code)
	}
	a1 := netaddr.MustParseAddr("10.0.0.1")
	a2 := netaddr.MustParseAddr("10.0.0.2")
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
	if n, err := c.Refused(); n != 0 {
		t.Fatalf("unexpected refusals: %d, first %v", n, err)
	}
	if code := post(c, http.MethodGet, "/report", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /report answered %d, want 405", code)
	}
	if code := post(c, http.MethodPost, "/upload", body); code != http.StatusNotFound {
		t.Errorf("POST /upload answered %d, want 404", code)
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
// loopback HTTP and checks the controller's merged sets reproduce the CDN
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

	ctrl := NewController()
	if err := Sweep(context.Background(), serve(t, ctrl), 10, tls, PartialView(4)); err != nil {
		t.Fatal(err)
	}

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
	if n, err := ctrl.Refused(); n != 0 {
		t.Fatalf("controller refused %d bodies, first: %v", n, err)
	}
}

func TestSweepErrors(t *testing.T) {
	tls := []cdn.Timeline{{Site: cdn.Site{Name: "x.example.com"}, Hours: 2,
		Initial: []netaddr.Addr{netaddr.MustParseAddr("10.0.0.1")}}}
	if err := Sweep(context.Background(), "127.0.0.1:1", 1, tls, nil); err == nil {
		t.Fatal("unreachable controller should error")
	}
	if err := Sweep(context.Background(), serve(t, NewController()), 0, tls, nil); err == nil {
		t.Fatal("zero nodes should error")
	}
}

// TestControllerRejectsGarbage: every malformed body is a 400 that commits
// nothing; the controller counts each refusal and keeps the first error.
func TestControllerRejectsGarbage(t *testing.T) {
	c := NewController()
	bodies := []string{
		`not json`,
		`null`,
		`{"day":0,"reports":[{"hour":1,"name":"d","addrs":["1.2.3.4"]}]}`,
		`{"node":"pl000","day":-1,"reports":[]}`,
		`{"node":"pl000","day":1,"reports":[{"hour":23,"name":"d","addrs":["1.2.3.4"]}]}`,
		`{"node":"pl000","day":0,"reports":[{"hour":24,"name":"d","addrs":["1.2.3.4"]}]}`,
		`{"node":"pl000","day":0,"reports":[]} {}`,
	}
	for _, b := range bodies {
		if code := post(c, http.MethodPost, "/report", []byte(b)); code != http.StatusBadRequest {
			t.Errorf("%s: answered %d, want 400", b, code)
		}
	}
	n, first := c.Refused()
	if n != len(bodies) || first == nil || !strings.Contains(first.Error(), "bad upload") {
		t.Fatalf("Refused() = %d, %v; want %d and the first body's decode error", n, first, len(bodies))
	}
	if c.ReportCount() != 0 || c.NodeCount() != 0 || len(c.merged) != 0 || len(c.committed) != 0 {
		t.Fatalf("refused bodies changed the union: %d reports, %d nodes", c.ReportCount(), c.NodeCount())
	}
}

// TestControllerBadAddrInReport: one address that does not parse refuses
// the whole body, the good addresses beside it included.
func TestControllerBadAddrInReport(t *testing.T) {
	c := NewController()
	body := mustJSON(t, Upload{Node: "pl000", Reports: []Report{
		{Hour: 0, Name: "d", Addrs: []string{"1.2.3.4"}},
		{Hour: 1, Name: "d", Addrs: []string{"not-an-ip", "1.2.3.4"}},
	}})
	if code := post(c, http.MethodPost, "/report", body); code != http.StatusBadRequest {
		t.Fatalf("answered %d, want 400", code)
	}
	if got := c.MergedSet("d", 0); len(got) != 0 {
		t.Fatalf("a refused body reached the union: %v", got)
	}
	if n, _ := c.Refused(); n != 1 || c.ReportCount() != 0 {
		t.Fatalf("%d refused, %d reports; want 1 and 0", n, c.ReportCount())
	}
	// The same day with the bad address gone is accepted: the refusal
	// left no (node, day) commit behind.
	body = mustJSON(t, Upload{Node: "pl000", Reports: []Report{{Hour: 1, Name: "d", Addrs: []string{"1.2.3.4"}}}})
	if code := post(c, http.MethodPost, "/report", body); code != http.StatusNoContent {
		t.Fatalf("corrected body answered %d, want 204", code)
	}
}

// spaces reads as an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestReportBodyOverLimitRefused: a well-formed upload one byte longer than
// maxReportBody is a 400 and commits nothing.
func TestReportBodyOverLimitRefused(t *testing.T) {
	c := NewController()
	head := mustJSON(t, Upload{Node: "pl000", Reports: []Report{{Hour: 0, Name: "d", Addrs: []string{"1.2.3.4"}}}})
	body := io.MultiReader(bytes.NewReader(head), io.LimitReader(spaces{}, maxReportBody+1-int64(len(head))))
	req := httptest.NewRequest(http.MethodPost, "/report", body)
	req.ContentLength = maxReportBody + 1
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("a body of maxReportBody+1 bytes answered %d, want 400", rec.Code)
	}
	if n, _ := c.Refused(); n != 1 || c.ReportCount() != 0 || len(c.MergedSet("d", 0)) != 0 {
		t.Fatalf("over-limit body: %d refused, %d reports; want 1 and 0", n, c.ReportCount())
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

	ctrl := NewController()
	if err := Sweep(context.Background(), serve(t, ctrl), 8, truth, PartialView(4)); err != nil {
		t.Fatal(err)
	}

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
	ctrl := NewController()
	if _, err := ctrl.MeasuredTimeline(cdn.Site{Name: "ghost"}, 10); err == nil {
		t.Error("unobserved site should error")
	}
	if _, err := ctrl.MeasuredTimeline(cdn.Site{Name: "x"}, 0); err == nil {
		t.Error("zero hours should error")
	}
}
