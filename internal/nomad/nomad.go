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
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"strings"
	"time"

	"locind/internal/ingest"
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

// Server is the NomadLog backend serving POST /upload: it folds each
// committed batch into streaming Aggregates. A batch is keyed by its
// X-Nomad-Batch-Id header, not its body, because engine.Uploader hands the
// ID beside the batch.
type Server struct {
	ingest.Handler[[]Entry]
	// Agg holds the running per-device aggregates of every accepted upload
	// (O(devices) memory, whatever the fleet uploads).
	Agg *Aggregates
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
	s := &Server{Agg: NewAggregates()}
	s.Handler = ingest.Handler[[]Entry]{
		Path: "/upload", MaxBody: maxUploadBody, Span: "nomad-store", Commit: s.Commit,
		Key: func(h http.Header, _ *[]Entry) []string { return []string{"batch", h.Get(batchIDHeader)} },
	}
	return s
}

// Commit validates a decoded batch and folds it into Agg, once per batch
// ID: a replay is a success, since the device's data is stored. The ID must
// name a hashed device and a sequence, and the batch must hold entries, each
// with an address and of that device: Aggregates dedups on its sequence.
func (s *Server) Commit(h http.Header, batch *[]Entry) error {
	id := h.Get(batchIDHeader)
	device, _, keyed := splitBatchID(id)
	switch {
	case !keyed || !strings.HasPrefix(device, "dev-"):
		return fmt.Errorf("nomad: batch ID %q is not <hashed device>-b<seq>", id)
	case len(*batch) == 0:
		return fmt.Errorf("nomad: batch %s is empty", id)
	}
	for _, e := range *batch {
		if e.DeviceID != device || e.IPAddr == "" {
			return fmt.Errorf("nomad: batch %s holds an entry of another device or with no address", id)
		}
	}
	s.Agg.IngestBatch(id, *batch)
	return nil
}

// Client is the device side of the upload protocol.
type Client struct {
	BaseURL string
	// HTTP carries the uploads; nil posts each over a fresh connection.
	HTTP *http.Client
}

// NewClient builds a client against the given base URL.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL: strings.TrimRight(baseURL, "/"),
		HTTP:    &http.Client{Timeout: 10 * time.Second},
	}
}

// Upload posts a sealed batch of entries under its batch ID, which makes
// the upload idempotent: a retry after a lost response replays the batch
// and the server skips the duplicate. ctx bounds the request.
func (c *Client) Upload(ctx context.Context, batchID string, batch []Entry) error {
	body, err := json.Marshal(batch)
	if err != nil {
		return err
	}
	return ingest.Post(ctx, c.HTTP, c.BaseURL+"/upload", body, batchIDHeader, batchID)
}
