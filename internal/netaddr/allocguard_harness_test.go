package netaddr

import (
	"testing"

	"locind/internal/lint/allocguard"
)

func TestAllocGuard(t *testing.T) { allocguard.Check(t, allocGuardHarness()) }

// allocGuardHarness maps each //lint:zeroalloc symbol in this package to
// its measurement, consumed by TestAllocGuard. Lookup sits
// on the innermost loop of every strategy replay and must be absolutely
// allocation-free against a populated trie. ParseAddr reads every address
// of every GNS datagram, on each replica a write reaches.
func allocGuardHarness() map[string]func(t *testing.T) float64 {
	return map[string]func(t *testing.T) float64{
		"ParseAddr": func(t *testing.T) float64 {
			in := []string{"22.33.44.55", "0.0.0.0", "255.255.255.255", "10.1.2.3", "010.001.0.9"}
			return testing.AllocsPerRun(100, func() {
				for _, s := range in {
					if _, err := ParseAddr(s); err != nil {
						t.Fatal(err)
					}
				}
			})
		},
		"Trie.Lookup": func(t *testing.T) float64 {
			var tr Trie[int]
			tr.Grow(3)
			tr.Insert(MustParsePrefix("22.33.44.0/24"), 5)
			tr.Insert(MustParsePrefix("22.33.0.0/16"), 3)
			tr.Insert(MustParsePrefix("10.0.0.0/8"), 9)
			addrs := []Addr{
				MustParseAddr("22.33.44.55"),
				MustParseAddr("22.33.88.55"),
				MustParseAddr("10.1.2.3"),
				MustParseAddr("200.1.1.1"),
			}
			return testing.AllocsPerRun(100, func() {
				for _, a := range addrs {
					tr.Lookup(a)
				}
			})
		},
	}
}
