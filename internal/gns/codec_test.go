package gns

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// encoding/json is the reference the hand-written codec is held to: the
// encoder byte for byte, the decoder value for value.

// sameRequest and sameResponse compare decoded values, treating a nil and
// an empty address list alike (encoding/json makes "addrs":[] a non-nil
// empty slice; nothing downstream tells the two apart).
func sameRequest(a, b Request) bool {
	if len(a.Addrs) == 0 && len(b.Addrs) == 0 {
		a.Addrs, b.Addrs = nil, nil
	}
	return reflect.DeepEqual(a, b)
}

func sameResponse(a, b Response) bool {
	if len(a.Addrs) == 0 && len(b.Addrs) == 0 {
		a.Addrs, b.Addrs = nil, nil
	}
	return reflect.DeepEqual(a, b)
}

var (
	requestKeys  = []string{"id", "op", "name", "addrs", "vv", "trace"}
	responseKeys = []string{"id", "ok", "code", "err", "name", "addrs", "version", "vv"}
)

// foldsOntoKey reports whether raw is an object with a key that
// encoding/json would match to one of keys case-insensitively but the
// exact-match decoder treats as unknown: the one place the two are meant to
// differ, in what they read and so in what they reject.
func foldsOntoKey(raw []byte, keys []string) bool {
	var obj map[string]json.RawMessage
	if json.Unmarshal(raw, &obj) != nil {
		return false
	}
	for k := range obj {
		for _, want := range keys {
			if k != want && strings.EqualFold(k, want) {
				return true
			}
		}
	}
	return false
}

// decodedBytes is the size of everything a decoded value holds.
func decodedBytes(strs []string, list []string) int {
	n := 16 * len(list)
	for _, s := range append(strs, list...) {
		n += len(s)
	}
	return n
}

// checkDecodeRequest holds decodeRequest to json.Unmarshal on one datagram.
// With exact set the two must agree on acceptance as well; otherwise the
// decoder may be the stricter of the two, never the laxer.
func checkDecodeRequest(t *testing.T, raw []byte, exact bool) {
	t.Helper()
	var mine, ref Request
	err := decodeRequest(raw, &mine)
	refErr := json.Unmarshal(raw, &ref)
	if exact && (err == nil) != (refErr == nil) {
		t.Fatalf("request %q: decoder err = %v, encoding/json err = %v", raw, err, refErr)
	}
	if err != nil || foldsOntoKey(raw, requestKeys) {
		return
	}
	if refErr != nil {
		t.Fatalf("request %q: decoder accepted what encoding/json rejects: %v", raw, refErr)
	}
	if !sameRequest(mine, ref) {
		t.Fatalf("request %q: decoder read %+v, encoding/json %+v", raw, mine, ref)
	}
	// An invalid byte grows to the three of U+FFFD; nothing grows more.
	if got := decodedBytes([]string{mine.Op, mine.Name, mine.VV, mine.Trace}, mine.Addrs); got > 16*len(raw) {
		t.Fatalf("request of %d bytes decoded to %d bytes", len(raw), got)
	}
}

func checkDecodeResponse(t *testing.T, raw []byte, exact bool) {
	t.Helper()
	var mine, ref Response
	err := decodeResponse(raw, &mine)
	refErr := json.Unmarshal(raw, &ref)
	if exact && (err == nil) != (refErr == nil) {
		t.Fatalf("response %q: decoder err = %v, encoding/json err = %v", raw, err, refErr)
	}
	if err != nil || foldsOntoKey(raw, responseKeys) {
		return
	}
	if refErr != nil {
		t.Fatalf("response %q: decoder accepted what encoding/json rejects: %v", raw, refErr)
	}
	if !sameResponse(mine, ref) {
		t.Fatalf("response %q: decoder read %+v, encoding/json %+v", raw, mine, ref)
	}
	if got := decodedBytes([]string{mine.Err, mine.Name, mine.VV}, mine.Addrs); got > 16*len(raw) {
		t.Fatalf("response of %d bytes decoded to %d bytes", len(raw), got)
	}
}

// handWritten are the raw datagrams the package's other tests feed to
// Server.handle, and a few more spellings a foreign client might send.
var handWritten = []string{
	`{"op":"destroy"}`,
	`{"op":"update","name":"x","addrs":["nope"]}`,
	`{not json`,
	`{"op":"lookup","name":"x"}`,
	`{"id":7,"op":"lookup","name":"x"}`,
	` { "op" : "vput" , "name" : "n" , "addrs" : [ "10.0.0.1" , "10.0.0.2" ] , "vv" : "1:2" } `,
	`{"op":"lookup","name":"x","future":{"a":[1,2.5e-3,{"b":null}],"c":"\u00e9"},"trace":"1-2"}`,
	`{"op":"lookup","name":"caf\u00e9 \ud83d\ude00 \ud800 \"q\" \\ \/ \b\f\n\r\t"}`,
	`{"op":"lookup","name":null,"addrs":null,"id":null}`,
	`{"op":"a","op":"b","addrs":["x","y"],"addrs":["z"]}`,
	`{"addrs":[]}`,
	`{"addrs":[null,"a"]}`,
	`{"addrs":["x","y"],"addrs":[null],"name":"n","name":null}`,
	`{}`,
	`{"id":18446744073709551615}`,
	`{"id":18446744073709551616}`,
	`{"id":01}`,
	`{"id":-1}`,
	`{"id":1.0}`,
	`{"name":5}`,
	`{"op":"lookup"} x`,
	`{"op":"lookup",}`,
	`{"op":"look` + "\x01" + `up"}`,
	`{"op":"bad \x escape"}`,
	`{"name":"` + "\xff\xfe" + `"}`,
	`{"ok":true,"name":"x","addrs":["10.0.0.1"],"version":3,"vv":"1:3"}`,
	`{"ok":false,"code":1,"err":"gns: name not found: \"x\""}`,
	`{"ok":false,"code":-2}`,
	`{"ok":"yes"}`,
	`null`,
	`[]`,
	``,
}

func TestDecoderMatchesJSONOnHandWrittenDatagrams(t *testing.T) {
	for _, raw := range handWritten {
		// null as a whole datagram is the one input encoding/json takes
		// (as "change nothing") that the decoder refuses: a datagram is an
		// object.
		exact := raw != `null`
		checkDecodeRequest(t, []byte(raw), exact)
		checkDecodeResponse(t, []byte(raw), exact)
	}
}

// awkward are field contents that exercise every branch of the string
// encoder: quotes and backslashes, each short escape, other control bytes,
// DEL, the HTML-safe set, U+2028/2029, multi-byte runes, invalid UTF-8.
var awkward = []string{
	"", "plain", `"quoted" \back\slash/`, "\b\f\n\r\t", "\x00\x01\x1f\x7f", "<script>&amp;</script>",
	"line\u2028para\u2029end", "caf\u00e9 \u4e16\u754c \U0001f600", "\xff", "a\xc3", "\xed\xa0\x80", "\xf0\x9f\x98",
}

func TestEncoderMatchesJSON(t *testing.T) {
	for i, s := range awkward {
		u := awkward[(i+1)%len(awkward)]
		checkEncode(t, s, u, "10.0.0.1", uint64(i), uint64(i)<<40, int64(i)-3, i%2 == 0)
	}
}

// checkEncode builds a request and a response from the given contents and
// requires the encoder's bytes to be json.Marshal's, and the decoder to
// read them as json.Unmarshal does.
func checkEncode(t *testing.T, s1, s2, s3 string, n1, n2 uint64, code int64, ok bool) {
	t.Helper()
	req := Request{ID: n1, Op: s1, Name: s2, VV: s3, Trace: s1}
	resp := Response{ID: n2, OK: ok, Code: Code(code), Err: s1, Name: s2, Version: n1, VV: s3}
	if s3 != "" {
		req.Addrs = []string{s3, s1}
		resp.Addrs = []string{s2, s3, s1}
	}
	want, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendRequest(nil, &req); !bytes.Equal(got, want) {
		t.Fatalf("request %+v:\n encoder %s\n    json %s", req, got, want)
	}
	checkDecodeRequest(t, want, true)
	if want, err = json.Marshal(resp); err != nil {
		t.Fatal(err)
	}
	if got := appendResponse(nil, &resp); !bytes.Equal(got, want) {
		t.Fatalf("response %+v:\n encoder %s\n    json %s", resp, got, want)
	}
	checkDecodeResponse(t, want, true)
}

// FuzzWireCodec: for arbitrary field contents the encoder's output is
// json.Marshal's byte for byte and the decoder reads it as json.Unmarshal
// does; for arbitrary datagrams the decoder never panics, never accepts
// what encoding/json rejects, agrees with it on what both accept, and
// never holds more than a constant times the input.
func FuzzWireCodec(f *testing.F) {
	for i, raw := range handWritten {
		s := awkward[i%len(awkward)]
		f.Add([]byte(raw), s, awkward[(i+5)%len(awkward)], "1:2,4294967296:1", uint64(i), uint64(1)<<uint(i), int64(i%7)-1, i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, raw []byte, s1, s2, s3 string, n1, n2 uint64, code int64, ok bool) {
		checkEncode(t, s1, s2, s3, n1, n2, code, ok)
		checkDecodeRequest(t, raw, false)
		checkDecodeResponse(t, raw, false)
	})
}

// TestDecodeAllocatesInProportionToInput measures what the structural
// bound in checkDecode* cannot: bytes allocated while decoding datagrams
// built to make a careless decoder over-allocate.
func TestDecodeAllocatesInProportionToInput(t *testing.T) {
	hostile := map[string][]byte{
		"empty strings":   []byte(`{"addrs":[` + strings.Repeat(`"",`, 2700) + `""]}`),
		"repeated key":    []byte(`{` + strings.Repeat(`"addrs":["a","b","c"],`, 340) + `"op":"x"}`),
		"invalid bytes":   []byte(`{"name":"` + strings.Repeat("\xff", 8000) + `"}`),
		"escapes":         []byte(`{"name":"` + strings.Repeat(`\u00e9`, 1300) + `"}`),
		"deep unknown":    []byte(`{"x":` + strings.Repeat(`[`, 4000) + strings.Repeat(`]`, 4000) + `}`),
		"unknown strings": []byte(`{"x":[` + strings.Repeat(`"abcdefgh",`, 700) + `1]}`),
	}
	for name, raw := range hostile {
		if len(raw) > maxDatagram+1 {
			t.Fatalf("%s: %d bytes is more than a datagram", name, len(raw))
		}
		var req Request
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		const runs = 20
		for i := 0; i < runs; i++ {
			decodeRequest(raw, &req) //nolint:errcheck // rejected or not, the allocation is what is measured
		}
		runtime.ReadMemStats(&ms1)
		perRun := (ms1.TotalAlloc - ms0.TotalAlloc) / runs
		if limit := uint64(48 * len(raw)); perRun > limit {
			t.Errorf("%s: decoding %d bytes allocated %d bytes a run, over the %d allowed", name, len(raw), perRun, limit)
		}
	}
}
