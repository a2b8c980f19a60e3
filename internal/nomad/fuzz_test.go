package nomad

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzUpload drives arbitrary upload bodies and batch-ID headers through a
// Server that keeps both backends, in process with httptest. The contract:
// the handler never panics and answers 204 or 400; a 400 stores nothing; the
// same request posted again gets the same answer; and a 204 posted twice
// under a keyed batch ID (one splitBatchID parses, which Aggregates dedups
// on) adds its records to Aggregates once — as it does to the LogStore under
// any non-empty ID.
//
// testdata/fuzz/FuzzUpload holds the shapes random bytes rarely spell: a
// well-formed keyed batch, the same unkeyed, an empty keyed batch, a keyed
// batch of two devices, a sequence number past 32 bits, a JSON null body,
// trailing bytes after the batch, an unhashed device ID and a missing address.
func FuzzUpload(f *testing.F) {
	f.Add([]byte(`[{"device_id":"dev-1","time":1.5,"ip_addr":"22.33.44.55","net_type":"wifi"}]`), "dev-1-b000001")
	f.Add([]byte(`{"device_id":"dev-1"}`), "")
	f.Fuzz(func(t *testing.T, body []byte, batchID string) {
		s := NewServer()
		s.Agg = NewAggregates()
		post := func() int {
			req := httptest.NewRequest(http.MethodPost, "/upload", bytes.NewReader(body))
			req.Header.Set(batchIDHeader, batchID)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			return rec.Code
		}
		code := post()
		switch code {
		case http.StatusBadRequest:
			if n, agg := s.Store.Len(), s.Agg.Snapshot(); n != 0 || agg.Records != 0 || agg.Batches != 0 {
				t.Fatalf("a 400 stored %d records and ingested %+v", n, agg)
			}
			return
		case http.StatusNoContent:
		default:
			t.Fatalf("upload answered %d, want 204 or 400", code)
		}
		stored, ingested := s.Store.Len(), s.Agg.Snapshot().Records
		if again := post(); again != code {
			t.Fatalf("the same upload answered %d, then %d", code, again)
		}
		if _, _, keyed := splitBatchID(batchID); keyed {
			if got := s.Agg.Snapshot().Records; got != ingested {
				t.Fatalf("batch %q posted twice: Aggregates holds %d records, %d after the first post", batchID, got, ingested)
			}
		}
		if batchID != "" && s.Store.Len() != stored {
			t.Fatalf("batch %q posted twice: LogStore holds %d records, %d after the first post", batchID, s.Store.Len(), stored)
		}
	})
}
