package gns

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// The codec's contract, held from both ends: whatever the structs hold, the
// decoder reads back what the encoder wrote; whatever bytes arrive, the
// decoder accepts them only if the encoder would have written exactly them.

// sameRequest and sameResponse compare decoded values, treating a nil and
// an empty address list alike (both are a count of 0 on the wire; nothing
// downstream tells the two apart).
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

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// One request and one response, field by field. Same-seed faultnet traces
// log datagram sizes, and a peer built from another commit reads these
// bytes: a layout change has to show up here as a deliberate diff (and as a
// new kind byte). The codec carries any op verbatim, so the request keeps
// the retired "update" op its bytes were first pinned with.
var (
	goldenRequest = Request{ID: 0x0102030405060708, Op: "update", Name: "dave.phone",
		Addrs: []string{"10.1.2.3", "10.4.5.6"}, VV: "1:2", Trace: "a1-b2"}
	goldenRequestHex = "51" + // kind 'Q'
		"0102030405060708" + // ID
		"0006" + "757064617465" + // Op
		"000a" + "646176652e70686f6e65" + // Name
		"0002" + "0008" + "31302e312e322e33" + "0008" + "31302e342e352e36" + // Addrs
		"0003" + "313a32" + // VV
		"0005" + "61312d6232" // Trace

	goldenResponse = Response{ID: 0x0102030405060708, OK: true, Code: CodeStale, Err: "stale", Name: "dave.phone",
		Addrs: []string{"10.1.2.3"}, Version: 3, VV: "1:3"}
	goldenResponseHex = "52" + // kind 'R'
		"0102030405060708" + // ID
		"01" + // OK
		"0000000000000004" + // Code
		"0005" + "7374616c65" + // Err
		"000a" + "646176652e70686f6e65" + // Name
		"0001" + "0008" + "31302e312e322e33" + // Addrs
		"0000000000000003" + // Version
		"0003" + "313a33" // VV
)

func TestWireGolden(t *testing.T) {
	if got := hex.EncodeToString(appendRequest(nil, &goldenRequest)); got != goldenRequestHex {
		t.Errorf("request layout changed:\n got %s\nwant %s", got, goldenRequestHex)
	}
	if got := hex.EncodeToString(appendResponse(nil, &goldenResponse)); got != goldenResponseHex {
		t.Errorf("response layout changed:\n got %s\nwant %s", got, goldenResponseHex)
	}
	var req Request
	if err := decodeRequest(unhex(t, goldenRequestHex), &req); err != nil || !sameRequest(req, goldenRequest) {
		t.Errorf("golden request decoded to %+v, %v", req, err)
	}
	var resp Response
	if err := decodeResponse(unhex(t, goldenResponseHex), &resp); err != nil || !sameResponse(resp, goldenResponse) {
		t.Errorf("golden response decoded to %+v, %v", resp, err)
	}
}

// wireReject is one datagram neither decoder may accept. id is what a
// request decoder must still report: the eight bytes behind the kind when
// they arrived, whatever the kind says; 0 otherwise.
type wireReject struct {
	name string
	raw  []byte
	id   uint64
}

// wireRejects lists the malformed datagrams: the named ones below, and
// every proper prefix of the two goldens — each field cut short at each of
// its bytes.
func wireRejects(t testing.TB) []wireReject {
	const id = 0x0102030405060708
	req, resp := unhex(t, goldenRequestHex), unhex(t, goldenResponseHex)
	badBool := bytes.Clone(resp)
	badBool[1+8] = 2 // the OK byte
	rejects := []wireReject{
		{"parent-format JSON", []byte(`{"op":"lookup","name":"x"}`), 0x226f70223a226c6f}, // `"op":"lo`
		{"request, one trailing byte", append(bytes.Clone(req), 0), id},
		{"response, one trailing byte", append(bytes.Clone(resp), 0), id},
		{"bool 2", badBool, id},
		{"unknown kind", append([]byte{'S'}, req[1:]...), id},
		{"65535 strings announced, one byte behind them", append(bytes.Clone(req[:1+8+2+6+2+10]), 0xff, 0xff, 0), id},
		{"string length past the end", append(bytes.Clone(req[:1+8]), 0xff, 0xff, 'x'), id},
		{"70000-byte name", appendRequest(nil, &Request{ID: id, Op: "vget", Name: strings.Repeat("n", 70000)}), id},
	}
	for _, golden := range []struct {
		which string
		raw   []byte
	}{{"request", req}, {"response", resp}} {
		for cut := range golden.raw {
			r := wireReject{name: fmt.Sprintf("golden %s cut to %d bytes", golden.which, cut), raw: golden.raw[:cut]}
			if cut >= 1+8 {
				r.id = id
			}
			rejects = append(rejects, r)
		}
	}
	return rejects
}

// TestDecodersRejectMalformedDatagrams: each reject is an error from both
// decoders, the request decoder still reports the ID as far as it arrived,
// and a server turns it into CodeBadRequest under that ID.
func TestDecodersRejectMalformedDatagrams(t *testing.T) {
	srv := &Server{svc: newMapBackend()}
	for _, tc := range wireRejects(t) {
		var req Request
		if err := decodeRequest(tc.raw, &req); err == nil {
			t.Errorf("%s (%d bytes): request decoder accepted it as %+v", tc.name, len(tc.raw), req)
		} else if req.ID != tc.id {
			t.Errorf("%s (%d bytes): request decoder reports ID %#x, want %#x", tc.name, len(tc.raw), req.ID, tc.id)
		}
		var resp Response
		if err := decodeResponse(tc.raw, &resp); err == nil {
			t.Errorf("%s (%d bytes): response decoder accepted it as %+v", tc.name, len(tc.raw), resp)
		}
		if got := srv.handle(tc.raw); got.OK || got.Code != CodeBadRequest || got.ID != tc.id {
			t.Errorf("%s (%d bytes): server replied %+v, want CodeBadRequest under ID %#x", tc.name, len(tc.raw), got, tc.id)
		}
	}
	// A list too long for its count prefix does not wrap into a small
	// datagram: it stays too large to send. (The same for a string is
	// TestTransportRejectsOversizedRequest's 70000-byte name.)
	if n := len(appendResponse(nil, &Response{Addrs: make([]string, 70000)})); n <= maxDatagram {
		t.Errorf("70000 addresses encoded to %d bytes, inside the %d-byte datagram limit", n, maxDatagram)
	}
}

// awkward are field contents a text format would have had to escape, fold
// or replace; this one carries each verbatim.
var awkward = []string{
	"", "plain", `"quoted" \back\slash/`, "\b\f\n\r\t", "\x00\x01\x1f\x7f", "<script>&amp;</script>",
	"line\u2028para\u2029end", "caf\u00e9 \u4e16\u754c \U0001f600", "\xff", "\xfe", "a\xc3", "\xed\xa0\x80", "\xf0\x9f\x98",
}

// decodedBytes is the size of everything a decoded value holds.
func decodedBytes(strs []string, list []string) int {
	n := 16 * len(list)
	for _, s := range append(strs, list...) {
		n += len(s)
	}
	return n
}

// checkRoundTrip builds a request and a response from the given contents
// and requires the decoder to read back exactly what the encoder wrote, and
// the encoder to fill a buffer of the datagram's size without outgrowing it.
func checkRoundTrip(t *testing.T, s1, s2, s3 string, n1, n2 uint64, code int64, ok bool) {
	t.Helper()
	req := Request{ID: n1, Op: s1, Name: s2, VV: s3, Trace: s1}
	resp := Response{ID: n2, OK: ok, Code: Code(code), Err: s1, Name: s2, Version: n1, VV: s3}
	if s3 != "" {
		req.Addrs = []string{s3, s1}
		resp.Addrs = []string{s2, s3, s1}
	}
	if len(s1) > maxField || len(s2) > maxField || len(s3) > maxField {
		return // not representable: TestDecodersRejectMalformedDatagrams holds the encoder to "too large to send"
	}

	wire := appendRequest(nil, &req)
	var gotReq Request
	if err := decodeRequest(wire, &gotReq); err != nil || !sameRequest(gotReq, req) {
		t.Fatalf("request %+v:\n wire %x\n read back as %+v, %v", req, wire, gotReq, err)
	}
	sized := make([]byte, 0, len(wire))
	if again := appendRequest(sized, &req); !bytes.Equal(again, wire) || &again[0] != &sized[:1][0] {
		t.Fatalf("request %+v: encoding into a %d-byte buffer outgrew it or changed the bytes", req, len(wire))
	}

	wire = appendResponse(nil, &resp)
	var gotResp Response
	if err := decodeResponse(wire, &gotResp); err != nil || !sameResponse(gotResp, resp) {
		t.Fatalf("response %+v:\n wire %x\n read back as %+v, %v", resp, wire, gotResp, err)
	}
	sized = make([]byte, 0, len(wire))
	if again := appendResponse(sized, &resp); !bytes.Equal(again, wire) || &again[0] != &sized[:1][0] {
		t.Fatalf("response %+v: encoding into a %d-byte buffer outgrew it or changed the bytes", resp, len(wire))
	}
}

// checkDecode feeds arbitrary bytes to both decoders: no panic; accepted or
// not, what they hold afterwards is at most a constant times the input (a
// list of n strings needs 2n bytes of datagram and 16n of headers); and
// whatever one accepts is the one encoding of what it read.
func checkDecode(t *testing.T, raw []byte) {
	t.Helper()
	var req Request
	err := decodeRequest(raw, &req)
	if got := decodedBytes([]string{req.Op, req.Name, req.VV, req.Trace}, req.Addrs); got > 9*len(raw) {
		t.Fatalf("request of %d bytes decoded to %d bytes", len(raw), got)
	}
	if err == nil && !bytes.Equal(appendRequest(nil, &req), raw) {
		t.Fatalf("request %x accepted as %+v, which encodes to %x", raw, req, appendRequest(nil, &req))
	}
	var resp Response
	err = decodeResponse(raw, &resp)
	if got := decodedBytes([]string{resp.Err, resp.Name, resp.VV}, resp.Addrs); got > 9*len(raw) {
		t.Fatalf("response of %d bytes decoded to %d bytes", len(raw), got)
	}
	if err == nil && !bytes.Equal(appendResponse(nil, &resp), raw) {
		t.Fatalf("response %x accepted as %+v, which encodes to %x", raw, resp, appendResponse(nil, &resp))
	}
}

// FuzzWireCodec: for arbitrary field contents decode(append(x)) == x and
// the encoder stays inside a buffer of the datagram's size; for arbitrary
// datagrams the decoders never panic, never hold more than a constant times
// the input, and accept b only when append(decoded) == b.
func FuzzWireCodec(f *testing.F) {
	seeds := [][]byte{unhex(f, goldenRequestHex), unhex(f, goldenResponseHex)}
	for _, r := range wireRejects(f) {
		if len(r.raw) <= maxDatagram+1 {
			seeds = append(seeds, r.raw)
		}
	}
	for i, raw := range seeds {
		s := awkward[i%len(awkward)]
		f.Add(raw, s, awkward[(i+5)%len(awkward)], "1:2,4294967296:1", uint64(i), uint64(1)<<uint(i), int64(i%7)-1, i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, raw []byte, s1, s2, s3 string, n1, n2 uint64, code int64, ok bool) {
		checkRoundTrip(t, s1, s2, s3, n1, n2, code, ok)
		checkDecode(t, raw)
	})
}

// TestDecodeAllocatesInProportionToInput measures what the structural
// bound in checkDecode cannot: bytes allocated while decoding datagrams
// built to make a careless decoder over-allocate.
func TestDecodeAllocatesInProportionToInput(t *testing.T) {
	header := unhex(t, goldenRequestHex)[:1+8]
	empty := []byte{0, 0}
	hostile := map[string][]byte{
		// Op and Name empty, then a count with next to nothing behind it.
		"65535 strings in three bytes": bytes.Join([][]byte{header, empty, empty, {0xff, 0xff, 0}}, nil),
		"65535 strings, 4000 there":    bytes.Join([][]byte{header, empty, empty, {0xff, 0xff}, make([]byte, 8000)}, nil),
		"all empty strings":            bytes.Join([][]byte{header, empty, empty, {0x0f, 0xa0}, make([]byte, 2*4000), empty, empty}, nil),
		"65535-byte op, one there":     bytes.Join([][]byte{header, {0xff, 0xff, 'x'}}, nil),
		"one long name":                appendRequest(nil, &Request{Op: "vget", Name: strings.Repeat("n", 8000)}),
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
