package cluster

import (
	"fmt"
	"testing"

	"locind/internal/lint/allocguard"
)

func TestAllocGuard(t *testing.T) { allocguard.Check(t, allocGuardHarness()) }

// allocGuardHarness maps each //lint:zeroalloc symbol in this package to
// its measurement, consumed by TestAllocGuard. The placement
// hashes and the version-vector comparator run once or more on every
// operation and have no buffer to warm: each must be allocation-free from
// the first call, at every shard and replica count up to the stack bound.
func allocGuardHarness() map[string]func(t *testing.T) float64 {
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("bench-%06d.gns", i*977)
	}
	sink := 0
	return map[string]func(t *testing.T) float64{
		"ShardOf": func(t *testing.T) float64 {
			return testing.AllocsPerRun(100, func() {
				for i, name := range names {
					sink += ShardOf(name, 1+i%16)
				}
			})
		},
		"Client.nameLock": func(t *testing.T) float64 {
			var c Client
			return testing.AllocsPerRun(100, func() {
				for _, name := range names {
					if c.nameLock(name) == nil {
						t.Fatal("nameLock returned no stripe")
					}
				}
			})
		},
		"VV.encodes": func(t *testing.T) float64 {
			vv := VV{{Origin: 1, Ctr: 2}, {Origin: 7, Ctr: 123456}, {Origin: 1 << 40, Ctr: 1<<64 - 1}}
			match, near := vv.Encode(), vv.Encode()+",9:1"
			return testing.AllocsPerRun(100, func() {
				if !vv.encodes(match) || vv.encodes(near) {
					t.Fatal("encodes disagrees with Encode")
				}
			})
		},
		"orderReplicas": func(t *testing.T) float64 {
			order := make([]int, stackReplicas)
			return testing.AllocsPerRun(100, func() {
				for i, name := range names {
					orderReplicas(name, order[:1+i%stackReplicas])
					sink += order[0]
				}
			})
		},
	}
}
