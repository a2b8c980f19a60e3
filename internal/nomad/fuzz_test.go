package nomad

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzUpload drives arbitrary upload bodies and batch-ID headers through a
// Server in process with httptest. ingest's FuzzHandler holds the contract
// every upload handler keeps; this one holds what Commit adds for batches:
// a refused upload leaves Aggregates as it was; an accepted one has a keyed
// batch ID (one splitBatchID parses, which Aggregates dedups on) and at
// least one entry, every entry of the device the ID names; and posted twice,
// it adds its records to Aggregates once.
//
// testdata/fuzz/FuzzUpload holds the shapes random bytes rarely spell: a
// well-formed keyed batch (204); the same unkeyed, an empty keyed batch, a
// keyed batch of two devices, a keyed batch of only another device's
// entries, a JSON null body, trailing bytes after the batch, an unhashed
// device ID and a missing address (each a 400); and a sequence number past
// 32 bits (a 400, since it does not parse).
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
		if code := post(); code != http.StatusNoContent {
			if agg := s.Agg.Snapshot(); agg.Records != 0 || agg.Batches != 0 {
				t.Fatalf("a %d ingested %+v", code, agg)
			}
			return
		}
		device, _, keyed := splitBatchID(batchID)
		var batch []Entry
		if err := json.Unmarshal(body, &batch); err != nil {
			t.Fatalf("a body the handler accepted does not decode: %v", err)
		}
		if !keyed || len(batch) == 0 {
			t.Fatalf("batch %q of %d entries accepted", batchID, len(batch))
		}
		for _, e := range batch {
			if e.DeviceID != device {
				t.Fatalf("batch %q accepted with an entry of %q", batchID, e.DeviceID)
			}
		}
		ingested := s.Agg.Snapshot()
		if again := post(); again != http.StatusNoContent {
			t.Fatalf("batch %q answered 204, then %d", batchID, again)
		}
		if got := s.Agg.Snapshot(); got.Records != ingested.Records || got.Batches != 1 || got.DupBatches != 1 {
			t.Fatalf("batch %q posted twice: Aggregates holds %+v, %+v after the first post", batchID, got, ingested)
		}
	})
}
