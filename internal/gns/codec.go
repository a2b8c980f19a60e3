package gns

import (
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The datagram codec. Request and Response are flat records of strings,
// integers, one bool and one string list, so the wire form — JSON objects,
// exactly the bytes encoding/json.Marshal emits for the two structs — is
// written by an append-style encoder and read by a single-pass decoder
// instead of encoding/json's reflection walk. The wire bytes are unchanged;
// encoding/json survives only as the oracle FuzzWireCodec holds both
// directions to.

// appendRequest appends r's wire form to dst: byte for byte what
// json.Marshal(r) returns.
//
//lint:zeroalloc per datagram once dst has grown to the datagram's size
func appendRequest(dst []byte, r *Request) []byte {
	dst = append(dst, '{')
	if r.ID != 0 {
		dst = append(dst, `"id":`...)
		dst = strconv.AppendUint(dst, r.ID, 10)
		dst = append(dst, ',')
	}
	dst = append(dst, `"op":`...)
	dst = appendJSONString(dst, r.Op)
	dst = append(dst, `,"name":`...)
	dst = appendJSONString(dst, r.Name)
	if len(r.Addrs) > 0 {
		dst = append(dst, `,"addrs":`...)
		dst = appendJSONStrings(dst, r.Addrs)
	}
	if r.VV != "" {
		dst = append(dst, `,"vv":`...)
		dst = appendJSONString(dst, r.VV)
	}
	if r.Trace != "" {
		dst = append(dst, `,"trace":`...)
		dst = appendJSONString(dst, r.Trace)
	}
	return append(dst, '}')
}

// appendResponse appends r's wire form to dst: byte for byte what
// json.Marshal(r) returns.
//
//lint:zeroalloc per datagram once dst has grown to the datagram's size
func appendResponse(dst []byte, r *Response) []byte {
	dst = append(dst, '{')
	if r.ID != 0 {
		dst = append(dst, `"id":`...)
		dst = strconv.AppendUint(dst, r.ID, 10)
		dst = append(dst, ',')
	}
	if r.OK {
		dst = append(dst, `"ok":true`...)
	} else {
		dst = append(dst, `"ok":false`...)
	}
	if r.Code != 0 {
		dst = append(dst, `,"code":`...)
		dst = strconv.AppendInt(dst, int64(r.Code), 10)
	}
	if r.Err != "" {
		dst = append(dst, `,"err":`...)
		dst = appendJSONString(dst, r.Err)
	}
	if r.Name != "" {
		dst = append(dst, `,"name":`...)
		dst = appendJSONString(dst, r.Name)
	}
	if len(r.Addrs) > 0 {
		dst = append(dst, `,"addrs":`...)
		dst = appendJSONStrings(dst, r.Addrs)
	}
	if r.Version != 0 {
		dst = append(dst, `,"version":`...)
		dst = strconv.AppendUint(dst, r.Version, 10)
	}
	if r.VV != "" {
		dst = append(dst, `,"vv":`...)
		dst = appendJSONString(dst, r.VV)
	}
	return append(dst, '}')
}

func appendJSONStrings(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, s)
	}
	return append(dst, ']')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal with encoding/json's
// default escaping: the two-character escapes for quote, backslash and
// \b \f \n \r \t, \u00XX for the other control bytes and for < > & (the
// HTML-safe set), U+2028 and U+2029 escaped, invalid UTF-8 replaced by
// U+FFFD.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// maxSkipDepth bounds the nesting of a value under an unknown key. Nothing
// this protocol sends nests at all; a datagram that nests deeper is
// rejected rather than followed.
const maxSkipDepth = 32

// wireDecoder is a cursor over one datagram.
type wireDecoder struct {
	buf []byte
	pos int
}

func (d *wireDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("wire: %s at offset %d", fmt.Sprintf(format, args...), d.pos)
}

// peek returns the byte at the cursor, 0 at the end of the datagram (a NUL
// is never valid JSON outside a string, so the two need no telling apart).
func (d *wireDecoder) peek() byte {
	if d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

func (d *wireDecoder) consume(c byte) bool {
	if d.pos < len(d.buf) && d.buf[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

func (d *wireDecoder) skipSpace() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return
		}
	}
}

// literal consumes word when it is next.
func (d *wireDecoder) literal(word string) bool {
	if len(d.buf)-d.pos >= len(word) && string(d.buf[d.pos:d.pos+len(word)]) == word {
		d.pos += len(word)
		return true
	}
	return false
}

// object walks one JSON object, calling field with each key (unescaped)
// and the cursor on the key's value; field consumes the value.
func (d *wireDecoder) object(field func(key []byte) error) error {
	if !d.consume('{') {
		return d.errorf("expected an object")
	}
	d.skipSpace()
	if d.consume('}') {
		return nil
	}
	for {
		d.skipSpace()
		raw, simple, err := d.scanString()
		if err != nil {
			return err
		}
		if !simple {
			raw = []byte(unquote(raw))
		}
		d.skipSpace()
		if !d.consume(':') {
			return d.errorf("expected ':' after object key")
		}
		d.skipSpace()
		if err := field(raw); err != nil {
			return err
		}
		d.skipSpace()
		if d.consume(',') {
			continue
		}
		if d.consume('}') {
			return nil
		}
		return d.errorf("expected ',' or '}' in object")
	}
}

// datagram decodes the one object a datagram holds; anything but white
// space around it is an error.
func (d *wireDecoder) datagram(field func(key []byte) error) error {
	d.skipSpace()
	if err := d.object(field); err != nil {
		return err
	}
	d.skipSpace()
	if d.pos != len(d.buf) {
		return d.errorf("unexpected data after the object")
	}
	return nil
}

// scanString consumes a string literal and returns the bytes between its
// quotes. simple reports that those bytes are the string's value as they
// stand: no escapes, valid UTF-8.
func (d *wireDecoder) scanString() (raw []byte, simple bool, err error) {
	if !d.consume('"') {
		return nil, false, d.errorf("expected a string")
	}
	start := d.pos
	escaped, ascii := false, true
	for d.pos < len(d.buf) {
		c := d.buf[d.pos]
		switch {
		case c == '"':
			raw = d.buf[start:d.pos]
			d.pos++
			return raw, !escaped && (ascii || utf8.Valid(raw)), nil
		case c == '\\':
			escaped = true
			d.pos++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos++
			case 'u':
				if len(d.buf)-d.pos < 5 || hex4(d.buf[d.pos+1:d.pos+5]) < 0 {
					return nil, false, d.errorf("bad \\u escape")
				}
				d.pos += 5
			default:
				return nil, false, d.errorf("bad escape")
			}
		case c < ' ':
			return nil, false, d.errorf("control byte in string")
		default:
			ascii = ascii && c < utf8.RuneSelf
			d.pos++
		}
	}
	return nil, false, d.errorf("unterminated string")
}

// hex4 decodes four hex digits, -1 when any is not one.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquote resolves the escapes of a string body scanString has accepted
// and coerces it to valid UTF-8 as encoding/json does: an invalid byte or
// an unpaired surrogate escape becomes U+FFFD.
func unquote(raw []byte) string {
	out := make([]byte, 0, len(raw)+2*utf8.UTFMax)
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			i += 2
			switch e := raw[i-1]; e {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(raw[i:])
				i += 4
				if utf16.IsSurrogate(r) {
					low := rune(-1)
					if len(raw)-i >= 6 && raw[i] == '\\' && raw[i+1] == 'u' {
						low = hex4(raw[i+2:])
					}
					if r = utf16.DecodeRune(r, low); r != unicode.ReplacementChar {
						i += 6
					}
				}
				out = utf8.AppendRune(out, r)
			default: // quote, backslash, slash
				out = append(out, e)
			}
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	return string(out)
}

// null consumes a null literal. encoding/json treats null as "leave the
// field alone" for every field type here, and so does every reader below.
func (d *wireDecoder) null() bool { return d.literal("null") }

func (d *wireDecoder) readString(dst *string) error {
	if d.null() {
		return nil
	}
	raw, simple, err := d.scanString()
	if err != nil {
		return err
	}
	if simple {
		*dst = string(raw)
	} else {
		*dst = unquote(raw)
	}
	return nil
}

// array walks one JSON array, calling elem with the cursor on each
// element; elem consumes it.
func (d *wireDecoder) array(elem func() error) error {
	if !d.consume('[') {
		return d.errorf("expected an array")
	}
	d.skipSpace()
	for first := true; !d.consume(']'); first = false {
		if !first && !d.consume(',') {
			return d.errorf("expected ',' or ']' in array")
		}
		d.skipSpace()
		if err := elem(); err != nil {
			return err
		}
		d.skipSpace()
	}
	return nil
}

// readStrings reads a list of strings into *dst. A list under a repeated
// key is read over the earlier one as encoding/json does it: element by
// element, a null leaving the element it falls on as it was, and the result
// cut to the later list's length.
func (d *wireDecoder) readStrings(dst *[]string) error {
	if d.null() {
		return nil
	}
	n := 0
	err := d.array(func() error {
		if n == len(*dst) {
			*dst = append(*dst, "")
		}
		n++
		return d.readString(&(*dst)[n-1])
	})
	*dst = (*dst)[:n]
	return err
}

// readDigits consumes a JSON integer's digits ("0", or a run that does not
// start with 0) and returns their value.
func (d *wireDecoder) readDigits() (uint64, error) {
	c := d.peek()
	if c < '0' || c > '9' {
		return 0, d.errorf("expected an integer")
	}
	d.pos++
	v := uint64(c - '0')
	if v == 0 {
		return 0, nil
	}
	for c = d.peek(); '0' <= c && c <= '9'; c = d.peek() {
		if v > (math.MaxUint64-uint64(c-'0'))/10 {
			return 0, d.errorf("integer overflows 64 bits")
		}
		v = v*10 + uint64(c-'0')
		d.pos++
	}
	return v, nil
}

func (d *wireDecoder) readUint(dst *uint64) error {
	if d.null() {
		return nil
	}
	v, err := d.readDigits()
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

func (d *wireDecoder) readCode(dst *Code) error {
	if d.null() {
		return nil
	}
	neg := d.consume('-')
	v, err := d.readDigits()
	if err != nil {
		return err
	}
	// The magnitude of the most negative int is one past the most positive.
	if limit := uint64(math.MaxInt); v > limit && !(neg && v == limit+1) {
		return d.errorf("integer overflows int")
	}
	if neg {
		v = -v // two's complement: the conversion below reads it back negative
	}
	*dst = Code(v)
	return nil
}

func (d *wireDecoder) readBool(dst *bool) error {
	switch {
	case d.null():
	case d.literal("true"):
		*dst = true
	case d.literal("false"):
		*dst = false
	default:
		return d.errorf("expected true or false")
	}
	return nil
}

// skipValue consumes any one JSON value (the value of a key this protocol
// version does not know), checking its syntax on the way.
func (d *wireDecoder) skipValue(depth int) error {
	if depth > maxSkipDepth {
		return d.errorf("value nested deeper than %d", maxSkipDepth)
	}
	switch c := d.peek(); {
	case c == '"':
		_, _, err := d.scanString()
		return err
	case c == '{':
		return d.object(func([]byte) error { return d.skipValue(depth + 1) })
	case c == '[':
		return d.array(func() error { return d.skipValue(depth + 1) })
	case c == '-' || ('0' <= c && c <= '9'):
		return d.skipNumber()
	case d.literal("true"), d.literal("false"), d.literal("null"):
		return nil
	}
	return d.errorf("expected a value")
}

// skipNumber consumes a number in JSON's full grammar.
func (d *wireDecoder) skipNumber() error {
	d.consume('-')
	if !d.consume('0') && !d.skipDigits() {
		return d.errorf("expected a digit")
	}
	if d.consume('.') && !d.skipDigits() {
		return d.errorf("expected a digit after '.'")
	}
	if d.consume('e') || d.consume('E') {
		if !d.consume('+') {
			d.consume('-')
		}
		if !d.skipDigits() {
			return d.errorf("expected a digit in exponent")
		}
	}
	return nil
}

// skipDigits consumes a run of digits and reports whether there was one.
func (d *wireDecoder) skipDigits() bool {
	start := d.pos
	for c := d.peek(); '0' <= c && c <= '9'; c = d.peek() {
		d.pos++
	}
	return d.pos > start
}

// decodeRequest parses one request datagram into r, which it first
// clears. Keys match exactly (the encoder's spelling); unknown keys are
// skipped, so a newer peer's extra field does not fail an older one.
func decodeRequest(data []byte, r *Request) error {
	*r = Request{}
	d := wireDecoder{buf: data}
	return d.datagram(func(key []byte) error {
		switch string(key) {
		case "id":
			return d.readUint(&r.ID)
		case "op":
			return d.readString(&r.Op)
		case "name":
			return d.readString(&r.Name)
		case "addrs":
			return d.readStrings(&r.Addrs)
		case "vv":
			return d.readString(&r.VV)
		case "trace":
			return d.readString(&r.Trace)
		}
		return d.skipValue(0)
	})
}

// decodeResponse parses one response datagram into r, which it first
// clears; see decodeRequest.
func decodeResponse(data []byte, r *Response) error {
	*r = Response{}
	d := wireDecoder{buf: data}
	return d.datagram(func(key []byte) error {
		switch string(key) {
		case "id":
			return d.readUint(&r.ID)
		case "ok":
			return d.readBool(&r.OK)
		case "code":
			return d.readCode(&r.Code)
		case "err":
			return d.readString(&r.Err)
		case "name":
			return d.readString(&r.Name)
		case "addrs":
			return d.readStrings(&r.Addrs)
		case "version":
			return d.readUint(&r.Version)
		case "vv":
			return d.readString(&r.VV)
		}
		return d.skipValue(0)
	})
}
