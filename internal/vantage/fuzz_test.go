package vantage

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unicode/utf8"
)

// countingReader serves b and records how many bytes were taken from it.
type countingReader struct {
	b    []byte
	read int
}

func (c *countingReader) Read(p []byte) (int, error) {
	r := bytes.NewReader(c.b[c.read:])
	n, err := r.Read(p)
	c.read += n
	return n, err
}

// checkFrameRoundTrip: for any field contents JSON can carry, what
// WriteFrame writes ReadFrame reads back equal, consuming exactly the frame.
func checkFrameRoundTrip(t *testing.T, typ, node, name, addrs, trace string, hour int) {
	for _, s := range []string{typ, node, name, addrs, trace} {
		if !utf8.ValidString(s) {
			return // JSON carries text; invalid UTF-8 comes back as U+FFFD
		}
	}
	in := Message{Type: typ, Node: node, Hour: hour, Name: name, Trace: trace}
	if addrs != "" {
		in.Addrs = strings.Split(addrs, ",")
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatalf("WriteFrame(%+v): %v", in, err)
	}
	wrote := buf.Len()
	r := &countingReader{b: buf.Bytes()}
	out, err := ReadFrame(r)
	if err != nil {
		t.Fatalf("ReadFrame of WriteFrame(%+v): %v", in, err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: wrote %+v, read %+v", in, out)
	}
	if r.read != wrote {
		t.Fatalf("ReadFrame consumed %d of the %d bytes one frame takes", r.read, wrote)
	}
}

// checkFrameDecode: on arbitrary bytes ReadFrame returns (it never
// panics), refuses a declared length above maxFrame having read only the
// header, reads nothing past the frame it accepts, and what it accepts is a
// fixed point of WriteFrame then ReadFrame — up to an empty Addrs, which
// `"addrs":[]` decodes to and omitempty writes as absent.
func checkFrameDecode(t *testing.T, raw []byte) {
	r := &countingReader{b: raw}
	m, err := ReadFrame(r)
	if len(raw) >= 4 && binary.BigEndian.Uint32(raw) > maxFrame {
		if err == nil || r.read != 4 {
			t.Fatalf("frame declaring %d bytes: err %v after reading %d bytes, want a refusal after the 4-byte header",
				binary.BigEndian.Uint32(raw), err, r.read)
		}
		return
	}
	if err != nil {
		return
	}
	if len(m.Addrs) == 0 {
		m.Addrs = nil
	}
	if want := 4 + int(binary.BigEndian.Uint32(raw)); r.read != want {
		t.Fatalf("accepted a frame of %d bytes after reading %d", want, r.read)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, m); err != nil {
		t.Fatalf("accepted %+v, which WriteFrame refuses: %v", m, err)
	}
	again, err := ReadFrame(&buf)
	if err != nil || !reflect.DeepEqual(m, again) {
		t.Fatalf("accepted %+v, which reads back as %+v (err %v)", m, again, err)
	}
}

// FuzzReadFrame holds the controller's frame decoder, which reads every
// byte a vantage node sends, to checkFrameRoundTrip for the field arguments
// and checkFrameDecode for raw. testdata/fuzz/FuzzReadFrame holds the frames
// random bytes rarely spell: a JSON null body, an empty addrs list, a length
// one past maxFrame with nothing behind it, a header cut short, a body cut
// short, and a body that is not JSON.
func FuzzReadFrame(f *testing.F) {
	var hello bytes.Buffer
	if err := WriteFrame(&hello, Message{Type: TypeHello, Node: "pl001", Trace: "00-0102-03-01"}); err != nil {
		f.Fatal(err)
	}
	f.Add(hello.Bytes(), TypeReport, "pl001", "s01.pop001.com", "1.2.3.4,5.6.7.8", "", 7)
	f.Add([]byte{0, 0, 0, 2, '{', '}'}, TypeBye, "", "<&> ", "", "", -1)
	f.Fuzz(func(t *testing.T, raw []byte, typ, node, name, addrs, trace string, hour int) {
		checkFrameRoundTrip(t, typ, node, name, addrs, trace, hour)
		checkFrameDecode(t, raw)
	})
}

// TestReadFrameRefusesBeforeAllocating measures what checkFrameDecode's
// byte count cannot: a header declaring more than maxFrame must be refused
// before the body is allocated, however much follows it.
func TestReadFrameRefusesBeforeAllocating(t *testing.T) {
	raw := make([]byte, 4, 4+64)
	binary.BigEndian.PutUint32(raw, maxFrame+1)
	raw = append(raw, make([]byte, 64)...)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	const runs = 20
	for i := 0; i < runs; i++ {
		if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
			t.Fatal("frame over maxFrame accepted")
		}
	}
	runtime.ReadMemStats(&ms1)
	if perRun := (ms1.TotalAlloc - ms0.TotalAlloc) / runs; perRun > 4096 {
		t.Fatalf("refusing an oversized frame allocated %d bytes a run", perRun)
	}
}
