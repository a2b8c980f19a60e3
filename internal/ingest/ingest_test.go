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
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"
)

// item is the toy upload the tests serve: keyed by Key, which must be
// non-empty.
type item struct {
	Key string `json:"key"`
	N   int    `json:"n"`
}

// store commits items first-wins per key.
type store struct {
	mu        sync.Mutex
	committed map[string]int
}

func (s *store) commit(_ http.Header, v *item) error {
	if v.Key == "" {
		return errors.New("item has no key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.committed[v.Key]; !ok {
		s.committed[v.Key] = v.N
	}
	return nil
}

func (s *store) snapshot() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.committed))
	for k, n := range s.committed {
		out[k] = n
	}
	return out
}

// testMaxBody is small enough for the fuzzer to cross.
const testMaxBody = 64

func newItemHandler() (*Handler[item], *store) {
	s := &store{committed: map[string]int{}}
	return &Handler[item]{
		Path: "/item", MaxBody: testMaxBody, Span: "item-commit", Commit: s.commit,
		Key: func(_ http.Header, v *item) []string { return []string{"key", v.Key} },
	}, s
}

// serve runs h behind Serve on a loopback port until the test ends and
// returns the port's host:port.
func serve(t *testing.T, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go Serve(ln, h) //nolint:errcheck // Accept's error once ln closes
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

func sameMap(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if m, ok := b[k]; !ok || m != n {
			return false
		}
	}
	return true
}

// FuzzHandler drives arbitrary methods, paths and bodies, with and without
// a declared Content-Length, through a Handler in process. The contract: no
// panic; only 204, 400, 404 or 405; 404 off the path and 405 off POST; a
// 400 commits nothing and raises Refused by exactly one, and no other answer
// moves it; a 204 is exactly a body of at most MaxBody bytes that
// json.Unmarshal accepts whole (so trailing bytes are a 400) and Commit
// accepts; and the same request twice gets the same answer.
func FuzzHandler(f *testing.F) {
	f.Add("POST", "/item", []byte(`{"key":"a","n":1}`), true)
	f.Add("POST", "/item", []byte(`{"key":"a","n":1} {"key":"b"}`), true)
	f.Add("POST", "/item", []byte(`{"key":"a","n":1}`+strings.Repeat(" ", testMaxBody)), false)
	f.Add("POST", "/item", []byte(`{"key":""}`), true)
	f.Add("POST", "/item", []byte(`null`), false)
	f.Add("GET", "/item", []byte(`{"key":"a"}`), true)
	f.Add("POST", "/other", []byte(`{"key":"a"}`), true)
	f.Fuzz(func(t *testing.T, method, path string, body []byte, declared bool) {
		h, s := newItemHandler()
		post := func() int {
			req := &http.Request{
				Method: method, URL: &url.URL{Path: path}, Header: http.Header{},
				Body: io.NopCloser(bytes.NewReader(body)), ContentLength: -1,
			}
			if declared {
				req.ContentLength = int64(len(body))
			}
			before, _ := h.Refused()
			committed := s.snapshot()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			after, _ := h.Refused()
			switch rec.Code {
			case http.StatusBadRequest:
				if after != before+1 {
					t.Fatalf("a 400 moved Refused from %d to %d", before, after)
				}
				if now := s.snapshot(); !sameMap(now, committed) {
					t.Fatalf("a 400 committed: %v, was %v", now, committed)
				}
			case http.StatusNoContent, http.StatusNotFound, http.StatusMethodNotAllowed:
				if after != before {
					t.Fatalf("a %d moved Refused from %d to %d", rec.Code, before, after)
				}
			default:
				t.Fatalf("answered %d", rec.Code)
			}
			return rec.Code
		}
		code := post()
		var v item
		switch {
		case path != h.Path:
			if code != http.StatusNotFound {
				t.Fatalf("%s %q answered %d, want 404", method, path, code)
			}
		case method != http.MethodPost:
			if code != http.StatusMethodNotAllowed {
				t.Fatalf("%s answered %d, want 405", method, code)
			}
		case len(body) <= testMaxBody && json.Unmarshal(body, &v) == nil && v.Key != "":
			if code != http.StatusNoContent {
				t.Fatalf("a well-formed item answered %d, want 204", code)
			}
		case code != http.StatusBadRequest:
			t.Fatalf("a body that is not one well-formed item of at most %d bytes answered %d, want 400", testMaxBody, code)
		}
		committed := s.snapshot()
		if again := post(); again != code {
			t.Fatalf("the same request answered %d, then %d", code, again)
		}
		if now := s.snapshot(); !sameMap(now, committed) {
			t.Fatalf("a repeated upload changed the store: %v, was %v", now, committed)
		}
	})
}

// TestBodyCutOffOverServe: a client that declares a 1000-byte body, sends
// 10 bytes and hangs up gets a counted 400 that commits nothing.
func TestBodyCutOffOverServe(t *testing.T) {
	t.Parallel()
	h, s := newItemHandler()
	h.MaxBody = 1 << 20
	addr := serve(t, h)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST /item HTTP/1.1\r\nHost: %s\r\nContent-Length: 1000\r\n\r\n%s", addr, `{"key":"a"`)
	conn.Close()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if n, _ := h.Refused(); n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the cut-off body was never refused")
		}
	}
	if got := s.snapshot(); len(got) != 0 {
		t.Fatalf("a cut-off body committed %v", got)
	}
	// The whole body, posted properly, commits.
	if err := Post(context.Background(), nil, "http://"+addr+"/item", []byte(`{"key":"a","n":7}`)); err != nil {
		t.Fatal(err)
	}
	if got := s.snapshot(); !sameMap(got, map[string]int{"a": 7}) {
		t.Fatalf("store holds %v after the proper post", got)
	}
	if err := Post(context.Background(), nil, "http://"+addr+"/item", []byte(`{"key":""}`)); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("a refused post returned %v, want an error naming the 400", err)
	}
}

// TestStalledHeaderIsClosed: the server closes a connection whose request
// header stops arriving midway, after readHeaderTimeout.
func TestStalledHeaderIsClosed(t *testing.T) {
	t.Parallel()
	h, _ := newItemHandler()
	conn, err := net.Dial("tcp", serve(t, h))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /item HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("the server kept a connection stalled mid-header open: %v", err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("the connection closed after %v, before readHeaderTimeout", waited)
	}
	if n, _ := h.Refused(); n != 0 {
		t.Fatalf("a request that never arrived was refused %d times", n)
	}
}
