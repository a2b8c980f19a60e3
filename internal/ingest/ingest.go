// Package ingest is the upload contract of both measurement pipelines,
// NomadLog's batches (§4) and the vantage campaign's days (§7.1): a client
// POSTs one JSON value; the server commits it first-wins under its key and
// answers 204, or answers 400 and changes nothing. A client that lost a 204
// re-posts safely. Handler serves it, Post sends it, Serve runs the server.
package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"locind/internal/obs"
)

// Handler serves POST Path for uploads of type T. For each request, in
// order: 404 off Path, 405 off POST; a declared body over MaxBody bytes is
// refused unread; the body must be one JSON value within MaxBody bytes and
// nothing after it; one span named Span opens, labelled by Key; Commit runs.
// A refusal is a 400, counted by Refused. Set the fields before serving.
type Handler[T any] struct {
	Path    string
	MaxBody int64
	Span    string
	// Key returns the upload's key as span label pairs.
	Key func(h http.Header, v *T) []string
	// Commit validates an upload and commits it first-wins under its key (a
	// key already committed is a success). An error changes nothing.
	Commit func(h http.Header, v *T) error
	// Tracer, when non-nil, records the spans, each parented onto the
	// client span named in the obs.TraceHeader.
	Tracer *obs.Tracer

	mu       sync.Mutex
	refused  int
	firstErr error
}

// ServeHTTP implements http.Handler.
func (h *Handler[T]) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != h.Path {
		http.NotFound(w, r)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if r.ContentLength > h.MaxBody {
		h.refuse(w, fmt.Errorf("upload of %d bytes exceeds %d", r.ContentLength, h.MaxBody))
		return
	}
	var v T
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, h.MaxBody))
	err := dec.Decode(&v)
	if err == nil {
		// One value and nothing after it: the next token must be the end.
		if _, err = dec.Token(); err == nil {
			err = errors.New("data after the value")
		} else if err == io.EOF {
			err = nil
		}
	}
	if err != nil {
		h.refuse(w, fmt.Errorf("bad upload: %w", err))
		return
	}
	tc, _ := obs.ParseTraceContext(r.Header.Get(obs.TraceHeader))
	span := h.Tracer.StartRemote(tc, h.Span, h.Key(r.Header, &v)...)
	defer span.End()
	if err := h.Commit(r.Header, &v); err != nil {
		h.refuse(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// refuse answers 400 and records the refusal.
func (h *Handler[T]) refuse(w http.ResponseWriter, err error) {
	h.mu.Lock()
	h.refused++
	if h.firstErr == nil {
		h.firstErr = err
	}
	h.mu.Unlock()
	http.Error(w, err.Error(), http.StatusBadRequest)
}

// Refused returns how many upload bodies were answered 400, and the first
// such body's error.
func (h *Handler[T]) Refused() (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.refused, h.firstErr
}

// oneShot dials afresh for each post, so each attempt meets one fault
// decision at a fault-injecting listener and same-seed runs replay.
var oneShot = &http.Client{
	Timeout:   readTimeout + 5*time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

// Post sends body to url with the header pairs kv and the trace context of
// the span ctx carries, if any. A nil client is oneShot. Anything but a 204
// is an error.
func Post(ctx context.Context, client *http.Client, url string, body []byte, kv ...string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	for i := 0; i+1 < len(kv); i += 2 {
		req.Header.Set(kv[i], kv[i+1])
	}
	if tc := obs.FromContext(ctx).Context(); tc.Valid() {
		req.Header.Set(obs.TraceHeader, tc.Encode())
	}
	if client == nil {
		client = oneShot
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("POST %s returned %s", url, resp.Status)
	}
	return nil
}

// Server timeouts, sized from the largest body either pipeline posts: a
// 22.3 MB vantage day at -domains 500, which loopback moves in under a second.
const (
	readHeaderTimeout = 5 * time.Second // closes a connection stalled mid-header
	// readTimeout bounds reading a request: the largest body at 0.75 MB/s.
	// A slower body is cut off, a counted 400.
	readTimeout = 30 * time.Second
	// idleTimeout: a kept-alive connection waits for its next request as
	// long as the largest body may take to read.
	idleTimeout = readTimeout
)

// Serve serves h on ln until ln is closed, and returns Accept's error then.
// The timeouts above bound every connection it opens. Every HTTP endpoint
// of the daemons runs on it: the uploads and each -obs.addr endpoint.
func Serve(ln net.Listener, h http.Handler) error {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	return srv.Serve(ln)
}
