package vantage

import (
	"encoding/json"
	"net/http"
	"testing"

	"locind/internal/cdn"
	"locind/internal/netaddr"
)

// FuzzReportUpload drives arbitrary bodies through a Controller in process
// with httptest. ingest's FuzzHandler holds the contract every upload
// handler keeps; this one holds what Commit adds for days: a refused body
// changes no counter and no merged set; an accepted one, posted again, is
// accepted again and commits once; and every address of an accepted body is
// in MergedSet at its (name, hour).
//
// testdata/fuzz/FuzzReportUpload holds the shapes random bytes rarely
// spell: a well-formed day and an empty report list (each a 204); an hour
// outside the day, an address that does not parse, a missing node, trailing
// bytes after the upload and a JSON null (each a 400).
func FuzzReportUpload(f *testing.F) {
	f.Add([]byte(`{"node":"pl001","day":1,"reports":[{"hour":30,"name":"s01.pop001.com","addrs":["1.2.3.4","5.6.7.8"]}]}`))
	f.Add([]byte(`{"node":"pl001","day":0,"reports":[{"hour":0,"name":"d","addrs":[]},{"hour":0,"name":"d","addrs":["1.2.3.4"]}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		c := NewController()
		if code := post(c, http.MethodPost, "/report", body); code != http.StatusNoContent {
			if c.ReportCount() != 0 || c.NodeCount() != 0 || c.dupCommits != 0 || len(c.committed) != 0 || len(c.merged) != 0 {
				t.Fatalf("a %d changed the union: %d reports from %d nodes, %d names", code, c.ReportCount(), c.NodeCount(), len(c.merged))
			}
			return
		}
		reports := c.ReportCount()
		if again := post(c, http.MethodPost, "/report", body); again != http.StatusNoContent {
			t.Fatalf("the same upload answered 204, then %d", again)
		}
		if c.ReportCount() != reports || c.DuplicateCommits() != 1 {
			t.Fatalf("a body posted twice committed %d reports, then %d (%d duplicates)", reports, c.ReportCount(), c.DuplicateCommits())
		}
		var up Upload
		if err := json.Unmarshal(body, &up); err != nil {
			t.Fatalf("a body the handler accepted does not decode: %v", err)
		}
		if reports != len(up.Reports) {
			t.Fatalf("accepted %d reports, committed %d", len(up.Reports), reports)
		}
		for _, rep := range up.Reports {
			merged := c.MergedSet(cdn.Name(rep.Name), rep.Hour)
			for _, s := range rep.Addrs {
				a, err := netaddr.ParseAddr(s)
				if err != nil {
					t.Fatalf("accepted address %q, which does not parse: %v", s, err)
				}
				if !contains(merged, a) {
					t.Fatalf("accepted %s for %q at hour %d, merged set is %v", s, rep.Name, rep.Hour, merged)
				}
			}
		}
	})
}

func contains(set []netaddr.Addr, a netaddr.Addr) bool {
	for _, b := range set {
		if b == a {
			return true
		}
	}
	return false
}
