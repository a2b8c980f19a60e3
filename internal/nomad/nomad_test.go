package nomad

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewStreamingServer()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func TestHashDeviceID(t *testing.T) {
	a := HashDeviceID("device-1")
	b := HashDeviceID("device-1")
	c := HashDeviceID("device-2")
	if a != b {
		t.Error("hash not deterministic")
	}
	if a == c {
		t.Error("distinct devices collide")
	}
	if !strings.HasPrefix(a, "dev-") {
		t.Errorf("hash format: %q", a)
	}
}

func TestUploadValidation(t *testing.T) {
	s, ts := newTestServer(t)
	c := NewClient(ts.URL)
	ctx := context.Background()
	dev := HashDeviceID("x")
	// Valid batch.
	err := c.Upload(ctx, dev+"-b000001", []Entry{{DeviceID: dev, Time: 1, IPAddr: "1.2.3.4", NetType: "wifi"}})
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Agg.Snapshot().Records; n != 1 {
		t.Fatalf("store holds %d records", n)
	}
	// Unhashed device ID rejected.
	if err := c.Upload(ctx, "raw-name-b000001", []Entry{{DeviceID: "raw-name", IPAddr: "1.2.3.4"}}); err == nil {
		t.Fatal("unhashed device_id accepted")
	}
	// Missing fields rejected.
	if err := c.Upload(ctx, dev+"-b000002", []Entry{{DeviceID: dev}}); err == nil {
		t.Fatal("missing ip_addr accepted")
	}
	// A batch ID with no sequence rejected: Aggregates could not dedup it.
	if err := c.Upload(ctx, "", []Entry{{DeviceID: dev, Time: 2, IPAddr: "1.2.3.4", NetType: "wifi"}}); err == nil {
		t.Fatal("unkeyed batch accepted")
	}
	if s.Agg.Snapshot().Records != 1 {
		t.Fatal("invalid batches must not be stored")
	}
	if n, first := s.Refused(); n != 3 || first == nil || !strings.Contains(first.Error(), "hashed") {
		t.Fatalf("Refused() = %d, %v; want 3 and the unhashed batch's error", n, first)
	}
}

// TestEmptyKeyedBatchRefused: a keyed empty batch is a 400, however often
// it is posted, and never counts as a batch. The engine never seals one.
func TestEmptyKeyedBatchRefused(t *testing.T) {
	s := NewStreamingServer()
	for post := 1; post <= 3; post++ {
		req := httptest.NewRequest(http.MethodPost, "/upload", strings.NewReader("[]"))
		req.Header.Set(batchIDHeader, "dev-1-b000003")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("post %d of an empty keyed batch answered %d, want 400", post, rec.Code)
		}
		if snap := s.Agg.Snapshot(); snap.Batches != 0 || snap.DupBatches != 0 {
			t.Fatalf("after post %d of an empty keyed batch: %+v", post, snap)
		}
	}
}

// TestUploadTrailingBytesRefused: a batch followed by anything but
// whitespace is a 400 and stores nothing; the batch alone is a 204.
func TestUploadTrailingBytesRefused(t *testing.T) {
	s := NewStreamingServer()
	dev := HashDeviceID("x")
	batch := `[{"device_id":"` + dev + `","time":1,"ip_addr":"1.2.3.4","net_type":"wifi"}]`
	for _, c := range []struct {
		body string
		want int
	}{
		{batch + " [garbage", http.StatusBadRequest},
		{batch + "[]", http.StatusBadRequest},
		{batch + " \n", http.StatusNoContent},
	} {
		req := httptest.NewRequest(http.MethodPost, "/upload", strings.NewReader(c.body))
		req.Header.Set(batchIDHeader, dev+"-b000001")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != c.want {
			t.Fatalf("%q answered %d, want %d", c.body, rec.Code, c.want)
		}
		want := uint64(0) // the 204 comes last
		if c.want == http.StatusNoContent {
			want = 1
		}
		if got := s.Agg.Snapshot().Records; got != want {
			t.Fatalf("after %q the store holds %d records, want %d", c.body, got, want)
		}
	}
}

// TestUploadBodyOverLimitRefused: a batch one byte longer than
// maxUploadBody is a 400 and stores nothing. The padding sits inside the
// JSON array, so the decoder must read past the limit to finish the batch.
func TestUploadBodyOverLimitRefused(t *testing.T) {
	s := NewStreamingServer()
	entry := `{"device_id":"` + HashDeviceID("x") + `","time":1,"ip_addr":"1.2.3.4","net_type":"wifi"}`
	body := "[" + entry + strings.Repeat(" ", maxUploadBody+1-len(entry)-2) + "]"
	before := s.Agg.Snapshot()
	// An undeclared length, so that the limit, not the Content-Length
	// pre-check, refuses it.
	req := httptest.NewRequest(http.MethodPost, "/upload", strings.NewReader(body))
	req.ContentLength = -1
	req.Header.Set(batchIDHeader, HashDeviceID("x")+"-b000001")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("a body of maxUploadBody+1 bytes answered %d, want 400", rec.Code)
	}
	if after := s.Agg.Snapshot(); after != before {
		t.Fatalf("over-limit body changed Aggregates: %+v, was %+v", after, before)
	}
	// The same batch without the padding is accepted.
	req = httptest.NewRequest(http.MethodPost, "/upload", strings.NewReader("["+entry+"]"))
	req.Header.Set(batchIDHeader, HashDeviceID("x")+"-b000001")
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("the unpadded batch answered %d, want 204", rec.Code)
	}
}

func TestMethodValidation(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := ts.Client().Get(ts.URL + "/upload")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET /upload = %d", resp.StatusCode)
	}
	resp, err = ts.Client().Post(ts.URL+"/upload", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad JSON upload = %d", resp.StatusCode)
	}
}

func TestClientErrors(t *testing.T) {
	c := NewClient("http://127.0.0.1:1") // nothing listens here
	if err := c.Upload(context.Background(), "dev-x-b000001", []Entry{{DeviceID: "dev-x", IPAddr: "1.2.3.4"}}); err == nil {
		t.Fatal("unreachable upload should error")
	}
}
