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
	// Valid batch.
	err := c.Upload(context.Background(), "", []Entry{{DeviceID: HashDeviceID("x"), Time: 1, IPAddr: "1.2.3.4", NetType: "wifi"}})
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Agg.Snapshot().Records; n != 1 {
		t.Fatalf("store holds %d records", n)
	}
	// Unhashed device ID rejected.
	if err := c.Upload(context.Background(), "", []Entry{{DeviceID: "raw-name", IPAddr: "1.2.3.4"}}); err == nil {
		t.Fatal("unhashed device_id accepted")
	}
	// Missing fields rejected.
	if err := c.Upload(context.Background(), "", []Entry{{DeviceID: HashDeviceID("x")}}); err == nil {
		t.Fatal("missing ip_addr accepted")
	}
	if s.Agg.Snapshot().Records != 1 {
		t.Fatal("invalid batches must not be stored")
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
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/upload", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("a body of maxUploadBody+1 bytes answered %d, want 400", rec.Code)
	}
	if after := s.Agg.Snapshot(); after != before {
		t.Fatalf("over-limit body changed Aggregates: %+v, was %+v", after, before)
	}
	// The same batch without the padding is accepted.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/upload", strings.NewReader("["+entry+"]")))
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
	if err := c.Upload(context.Background(), "", []Entry{{DeviceID: "dev-x", IPAddr: "1.2.3.4"}}); err == nil {
		t.Fatal("unreachable upload should error")
	}
}
