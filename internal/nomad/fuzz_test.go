package nomad

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzUpload drives arbitrary upload bodies and batch-ID headers through a
// Server in process with httptest. The contract: the handler never panics
// and answers 204 or 400; a 400 stores nothing; the same request posted
// again gets the same answer; a keyed batch ID (one splitBatchID parses,
// which Aggregates dedups on) whose batch holds an entry of any device but
// the one the ID names is a 400; and a keyed 204 posted twice adds its
// records to Aggregates once.
//
// testdata/fuzz/FuzzUpload holds the shapes random bytes rarely spell: a
// well-formed keyed batch, the same unkeyed, an empty keyed batch, a keyed
// batch of two devices, a keyed batch of only another device's entries, a
// sequence number past 32 bits, a JSON null body, trailing bytes after the
// batch, an unhashed device ID and a missing address.
func FuzzUpload(f *testing.F) {
	f.Add([]byte(`[{"device_id":"dev-1","time":1.5,"ip_addr":"22.33.44.55","net_type":"wifi"}]`), "dev-1-b000001")
	f.Add([]byte(`{"device_id":"dev-1"}`), "")
	f.Fuzz(func(t *testing.T, body []byte, batchID string) {
		s := NewStreamingServer()
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
			if agg := s.Agg.Snapshot(); agg.Records != 0 || agg.Batches != 0 {
				t.Fatalf("a 400 ingested %+v", agg)
			}
			return
		case http.StatusNoContent:
		default:
			t.Fatalf("upload answered %d, want 204 or 400", code)
		}
		ingested := s.Agg.Snapshot().Records
		if again := post(); again != code {
			t.Fatalf("the same upload answered %d, then %d", code, again)
		}
		device, _, keyed := splitBatchID(batchID)
		if !keyed {
			return
		}
		var batch []Entry
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&batch); err != nil {
			t.Fatalf("a body the handler accepted does not decode: %v", err)
		}
		for _, e := range batch {
			if e.DeviceID != device {
				t.Fatalf("batch %q accepted with an entry of %q", batchID, e.DeviceID)
			}
		}
		if got := s.Agg.Snapshot().Records; got != ingested {
			t.Fatalf("batch %q posted twice: Aggregates holds %d records, %d after the first post", batchID, got, ingested)
		}
	})
}
