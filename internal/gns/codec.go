package gns

import (
	"encoding/binary"
	"fmt"
)

// The datagram codec. Request and Response are flat records of strings,
// integers, one bool and one string list, and their only writer and only
// reader are this file, so the wire form is the plainest one that holds
// them: a kind byte, then every field in declaration order, always present.
//
//	request   'Q'  ID u64  Op str  Name str  Addrs list  VV str  Trace str
//	response  'R'  ID u64  OK u8   Code i64  Err str  Name str  Addrs list
//	               Version u64  VV str
//
// Integers are fixed-width big-endian; OK is 0 or 1; a str is a u16 length
// and that many bytes, carried verbatim (a name is the bytes it was given,
// valid UTF-8 or not); a list is a u16 count and that many strs. A record
// therefore has exactly one encoding, and the decoders accept exactly what
// the encoders write — the contract ParseVV and obs.ParseTraceContext hold
// too: a short field, a byte after the last field, a bool that is neither 0
// nor 1, a length or count the remaining bytes cannot hold, or another kind
// byte is an error. The kind byte is also the version: a new field is a new
// kind, and since the ID follows the kind in every one of them a server can
// tell a newer client "bad request" under the ID that client is waiting on.
const (
	kindRequest  = 'Q'
	kindResponse = 'R'
)

// maxField is the longest string and the longest list a length prefix can
// announce. The encoders saturate the prefix and still append all of a
// longer one, so such a record comes out larger than maxField — far past
// maxDatagram, where every sender's size check refuses it — instead of
// wrapping into a small, well-formed datagram that says something else.
const maxField = 1<<16 - 1

// appendRequest appends r's wire form to dst.
//
//lint:zeroalloc per datagram once dst has grown to the datagram's size
func appendRequest(dst []byte, r *Request) []byte {
	dst = append(dst, kindRequest)
	dst = binary.BigEndian.AppendUint64(dst, r.ID)
	dst = appendString(dst, r.Op)
	dst = appendString(dst, r.Name)
	dst = appendStrings(dst, r.Addrs)
	dst = appendString(dst, r.VV)
	return appendString(dst, r.Trace)
}

// appendResponse appends r's wire form to dst.
//
//lint:zeroalloc per datagram once dst has grown to the datagram's size
func appendResponse(dst []byte, r *Response) []byte {
	dst = append(dst, kindResponse)
	dst = binary.BigEndian.AppendUint64(dst, r.ID)
	if r.OK {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(r.Code)))
	dst = appendString(dst, r.Err)
	dst = appendString(dst, r.Name)
	dst = appendStrings(dst, r.Addrs)
	dst = binary.BigEndian.AppendUint64(dst, r.Version)
	return appendString(dst, r.VV)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(min(len(s), maxField)))
	return append(dst, s...)
}

func appendStrings(dst []byte, ss []string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(min(len(ss), maxField)))
	for _, s := range ss {
		dst = appendString(dst, s)
	}
	return dst
}

// wireDecoder is a cursor over one datagram: buf is what is left of it. The
// first field that does not fit sets err; every read after that returns its
// zero value and allocates nothing, so a decoder reads all its fields and
// checks once, in finish.
type wireDecoder struct {
	buf []byte
	err error
}

func (d *wireDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// take consumes the next n bytes of field what, nil when fewer are left.
func (d *wireDecoder) take(n int, what string) []byte {
	if n > len(d.buf) {
		d.fail("%s cut short", what)
	}
	if d.err != nil {
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

// uint reads a big-endian integer of width bytes.
func (d *wireDecoder) uint(width int, what string) (v uint64) {
	for _, b := range d.take(width, what) {
		v = v<<8 | uint64(b)
	}
	return v
}

// header reads the kind byte and, whatever it says, the ID behind it.
func (d *wireDecoder) header(want byte) (id uint64) {
	kind := d.uint(1, "kind")
	id = d.uint(8, "id")
	if kind != uint64(want) {
		d.fail("kind %#02x, want %q", kind, want)
	}
	return id
}

func (d *wireDecoder) flag(what string) bool {
	b := d.uint(1, what)
	if b > 1 {
		d.fail("%s is %d, neither 0 nor 1", what, b)
	}
	return b == 1
}

func (d *wireDecoder) str(what string) string {
	return string(d.take(int(d.uint(2, what)), what))
}

// strs reads a list. Each element takes at least the two bytes of its
// length, so a count over half the bytes left is refused before anything is
// allocated for it: no datagram makes the decoder hold more than a constant
// times the datagram's own size.
func (d *wireDecoder) strs(what string) []string {
	n := int(d.uint(2, what))
	if 2*n > len(d.buf) {
		d.fail("%s announces %d strings, more than the datagram holds", what, n)
	}
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str(what)
	}
	return out
}

// finish reports the first error, or any bytes left after the last field.
func (d *wireDecoder) finish() error {
	if len(d.buf) != 0 {
		d.fail("%d bytes after the last field", len(d.buf))
	}
	return d.err
}

// decodeRequest parses one request datagram into r, which it first clears.
// On an error r.ID is still the request's ID whenever the datagram was long
// enough to hold one, so the server can address its rejection.
func decodeRequest(data []byte, r *Request) error {
	d := wireDecoder{buf: data}
	*r = Request{ID: d.header(kindRequest)}
	r.Op = d.str("op")
	r.Name = d.str("name")
	r.Addrs = d.strs("addrs")
	r.VV = d.str("vv")
	r.Trace = d.str("trace")
	return d.finish()
}

// decodeResponse parses one response datagram into r, which it first
// clears.
func decodeResponse(data []byte, r *Response) error {
	d := wireDecoder{buf: data}
	*r = Response{ID: d.header(kindResponse)}
	r.OK = d.flag("ok")
	code := int64(d.uint(8, "code"))
	if r.Code = Code(code); int64(r.Code) != code {
		// An int narrower than 64 bits would read 2^32 encodings as each code.
		d.fail("code %d does not fit an int", code)
	}
	r.Err = d.str("err")
	r.Name = d.str("name")
	r.Addrs = d.strs("addrs")
	r.Version = d.uint(8, "version")
	r.VV = d.str("vv")
	return d.finish()
}
