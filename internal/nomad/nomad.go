// Package nomad reimplements the paper's NomadLog measurement pipeline (§4)
// as a working client/server system: the server side (idempotent batch
// uploads folded into streaming per-device aggregates where the paper kept
// a postgres database) and the HTTP client a device uploads through. The
// device side — connectivity events buffered per device,
// store-and-forward batching (uploads happen only when the device is
// "connected to power and WiFi") — is package engine.
//
// The app asked an IP-echo endpoint for each record's public-facing
// address. In simulation every device connects over loopback, so the
// address is the one the workload assigns the visit, and the device logs it
// without a round trip; the server has no echo endpoint.
package nomad

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"strings"
	"time"

	"locind/internal/obs"
)

// Entry is one log record, matching the schema of §4:
//
//	device_id | time | ip_addr | net_type | (lat, long)
type Entry struct {
	DeviceID string  `json:"device_id"` // hashed device identifier
	Time     float64 `json:"time"`      // hours from trace start
	IPAddr   string  `json:"ip_addr"`
	NetType  string  `json:"net_type"`
	Lat      float64 `json:"lat,omitempty"`
	Long     float64 `json:"long,omitempty"`
}

// HashDeviceID converts a raw device identifier into the hashed form stored
// in the database, providing the limited privacy the paper describes.
func HashDeviceID(raw string) string {
	h := fnv.New64a()
	h.Write([]byte(raw))
	return fmt.Sprintf("dev-%016x", h.Sum64())
}

// Server is the NomadLog backend: the upload endpoint, which folds every
// accepted batch into streaming Aggregates.
type Server struct {
	// Agg holds the running per-device aggregates of every accepted upload
	// (O(devices) memory, whatever the fleet uploads).
	Agg *Aggregates
	// Tracer, when non-nil, records one span per accepted upload batch,
	// parented onto the uploading agent's batch span via the trace header.
	// Nil traces nothing.
	Tracer *obs.Tracer
	mux    *http.ServeMux
}

// batchIDHeader carries the device's stable batch identifier, the key the
// store dedups on when a retry replays a batch whose response was lost.
const batchIDHeader = "X-Nomad-Batch-Id"

// maxUploadBody bounds an upload body. The largest batch nomadd posts is
// 5.9 KB (-soak -soak.quick), and a soak device's MaxPending of 512
// records caps a batch near 64 KB; a longer body is a 400.
const maxUploadBody = 1 << 20

// NewStreamingServer constructs the backend: uploads fold into Aggregates
// and no record is retained.
func NewStreamingServer() *Server {
	s := &Server{Agg: NewAggregates(), mux: http.NewServeMux()}
	s.mux.HandleFunc("/upload", s.handleUpload)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	tc, _ := obs.ParseTraceContext(r.Header.Get(obs.TraceHeader))
	span := s.Tracer.StartRemote(tc, "nomad-store", "batch", r.Header.Get(batchIDHeader))
	defer span.End()
	var batch []Entry
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUploadBody))
	if err := dec.Decode(&batch); err != nil {
		http.Error(w, fmt.Sprintf("bad batch: %v", err), http.StatusBadRequest)
		return
	}
	batchID := r.Header.Get(batchIDHeader)
	device, _, keyed := splitBatchID(batchID)
	for _, e := range batch {
		if e.DeviceID == "" || e.IPAddr == "" {
			http.Error(w, "entry missing device_id or ip_addr", http.StatusBadRequest)
			return
		}
		if !strings.HasPrefix(e.DeviceID, "dev-") {
			http.Error(w, "device_id must be hashed", http.StatusBadRequest)
			return
		}
		// Aggregates dedups a keyed batch on the device its ID names, so an
		// entry of any other device would land under the wrong sequence.
		if keyed && e.DeviceID != device {
			http.Error(w, "batch holds another device's entries", http.StatusBadRequest)
			return
		}
	}
	// Applying a replayed batch twice would duplicate log entries, so the
	// aggregates dedup on the batch ID; a duplicate is still a success from
	// the device's point of view (its data is safely stored).
	s.Agg.IngestBatch(batchID, batch)
	w.WriteHeader(http.StatusNoContent)
}

// Client is the device side of the upload protocol.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// NewClient builds a client against the given base URL.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL: strings.TrimRight(baseURL, "/"),
		HTTP:    &http.Client{Timeout: 10 * time.Second},
	}
}

// Upload posts a sealed batch of entries. batchID, when non-empty, makes
// the upload idempotent: a retry after a lost response replays the batch
// and the server skips the duplicate. ctx bounds the request.
func (c *Client) Upload(ctx context.Context, batchID string, batch []Entry) error {
	body, err := json.Marshal(batch)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/upload", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if batchID != "" {
		req.Header.Set(batchIDHeader, batchID)
	}
	// Propagate the batch span carried by ctx (if any) so the server's
	// store span parents onto it.
	if tc := obs.FromContext(ctx).Context(); tc.Valid() {
		req.Header.Set(obs.TraceHeader, tc.Encode())
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("nomad: /upload returned %s", resp.Status)
	}
	return nil
}
