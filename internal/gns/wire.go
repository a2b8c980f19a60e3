package gns

import (
	"errors"
	"fmt"
	"strings"
)

// Request is a UDP resolution-protocol message. Its wire form is codec.go's;
// the struct tags here and on Response serve only bench/, which marshals the
// two structs for its gns.encode_ns and gns.decode_ns rows.
type Request struct {
	// ID is the transaction ID the Transport stamps on each attempt; the
	// server echoes it in the reply, and the client discards any reply whose
	// ID is not the one it is waiting for. It demultiplexes replies on a
	// reused socket; it is not a secret. 0 from a client that does not match
	// replies.
	ID    uint64   `json:"id,omitempty"`
	Op    string   `json:"op"` // "vget" or "vput", the replication ops a replica serves
	Name  string   `json:"name"`
	Addrs []string `json:"addrs,omitempty"`
	// VV carries the encoded version vector (cluster.VV wire form) a vput
	// installs; empty on a vget.
	VV string `json:"vv,omitempty"`
	// Trace is the originating client span's obs.TraceContext in Encode
	// form ("<trace-id>-<span-id>"), empty when the client traces nothing.
	// It parents the server-side handling span onto the client request span
	// so both sides assemble into one causal tree; a mangled value is
	// ignored, never an error.
	Trace string `json:"trace,omitempty"`
}

// Code classifies a wire error so clients can tell non-retryable failures
// (the name does not exist; the request itself is malformed) from transient
// ones (quorum lost, internal fault) without parsing error strings.
type Code int

const (
	// CodeOK is the zero value: no error.
	CodeOK Code = 0
	// CodeNotFound: the name has no binding. Permanent — retrying the same
	// lookup cannot succeed until someone updates the name.
	CodeNotFound Code = 1
	// CodeBadRequest: the request was malformed (a datagram the codec does
	// not read, unknown op, bad address, oversized datagram). Permanent — a
	// retry resends the same bytes.
	CodeBadRequest Code = 2
	// CodeNoQuorum: too few replicas were reachable. Transient — replicas
	// recover.
	CodeNoQuorum Code = 3
	// CodeStale: the replica's copy is older than the version the client
	// proved it has seen. Transient from the cluster's point of view —
	// another replica, or anti-entropy, has the newer record.
	CodeStale Code = 4
	// CodeInternal: the server failed in an unforeseen way (panic
	// converted to an error, marshal failure). Treated as transient.
	CodeInternal Code = 5
)

// Response is the UDP reply.
type Response struct {
	// ID echoes the request's ID (0 when the request carried none or was
	// too short to hold one).
	ID uint64 `json:"id,omitempty"`
	OK bool   `json:"ok"`
	// Code classifies the error when OK is false; CodeOK otherwise. Err
	// keeps the human-readable detail.
	Code    Code     `json:"code,omitempty"`
	Err     string   `json:"err,omitempty"`
	Name    string   `json:"name,omitempty"`
	Addrs   []string `json:"addrs,omitempty"`
	Version uint64   `json:"version,omitempty"`
	// VV is the stored record's encoded version vector.
	VV string `json:"vv,omitempty"`
}

// maxDatagram bounds request/response sizes.
const maxDatagram = 8192

// Errors returned by the service and surfaced through the wire protocol.
var (
	ErrNoQuorum   = errors.New("gns: quorum unavailable")
	ErrNotFound   = errors.New("gns: name not found")
	ErrBadRequest = errors.New("gns: bad request")
	ErrStale      = errors.New("gns: replica copy is stale")
	ErrInternal   = errors.New("gns: internal server error")
)

// CodeFor classifies err into its wire code. Unrecognised errors are
// internal: the conservative, retryable classification.
func CodeFor(err error) Code {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, ErrNotFound):
		return CodeNotFound
	case errors.Is(err, ErrBadRequest):
		return CodeBadRequest
	case errors.Is(err, ErrNoQuorum):
		return CodeNoQuorum
	case errors.Is(err, ErrStale):
		return CodeStale
	default:
		return CodeInternal
	}
}

// sentinel returns the canonical error a code unwraps to.
func (c Code) sentinel() error {
	switch c {
	case CodeNotFound:
		return ErrNotFound
	case CodeBadRequest:
		return ErrBadRequest
	case CodeNoQuorum:
		return ErrNoQuorum
	case CodeStale:
		return ErrStale
	default:
		return ErrInternal
	}
}

// Permanent reports whether the code marks a failure that retrying the
// identical request cannot fix.
func (c Code) Permanent() bool { return c == CodeNotFound || c == CodeBadRequest }

// errorResponse builds the wire form of err.
func errorResponse(err error) Response {
	return Response{Code: CodeFor(err), Err: err.Error()}
}

// AsError converts an error response into a Go error that wraps the code's
// canonical sentinel, so callers test with errors.Is(err, gns.ErrNotFound)
// instead of matching strings. A response with OK set returns nil.
func (r Response) AsError() error {
	if r.OK {
		return nil
	}
	sent := r.Code.sentinel()
	detail := strings.TrimPrefix(r.Err, sent.Error())
	detail = strings.TrimPrefix(detail, ": ")
	if detail == "" {
		return sent
	}
	return fmt.Errorf("%w: %s", sent, detail)
}
