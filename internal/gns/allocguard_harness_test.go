package gns

import (
	"testing"

	"locind/internal/lint/allocguard"
)

func TestAllocGuard(t *testing.T) { allocguard.Check(t, allocGuardHarness()) }

// allocGuardHarness maps each //lint:zeroalloc symbol in this package to
// its measurement, consumed by TestAllocGuard. The encoders'
// only legitimate allocation is growing dst to the datagram's size, so each
// measurement encodes once to warm the buffer and then requires re-encoding
// into it to be allocation-free, every field and both list elements filled.
func allocGuardHarness() map[string]func(t *testing.T) float64 {
	awkward := "q\"\\\n\x01<&> \xff é"
	return map[string]func(t *testing.T) float64{
		"appendRequest": func(t *testing.T) float64 {
			req := Request{ID: 1 << 40, Op: "vput", Name: "bench-000001.gns" + awkward,
				Addrs: []string{"10.0.0.1", awkward}, VV: "1:2,4294967296:1", Trace: "00000000000000a1-00000000000000b2"}
			buf := appendRequest(nil, &req)
			return testing.AllocsPerRun(100, func() { buf = appendRequest(buf[:0], &req) })
		},
		"appendResponse": func(t *testing.T) float64 {
			resp := Response{ID: 1 << 40, OK: false, Code: CodeStale, Err: "gns: replica copy is stale: " + awkward,
				Name: "bench-000001.gns", Addrs: []string{"10.0.0.1", awkward}, Version: 1 << 50, VV: "1:2,4294967296:1"}
			buf := appendResponse(nil, &resp)
			return testing.AllocsPerRun(100, func() { buf = appendResponse(buf[:0], &resp) })
		},
	}
}
