package bgp

import (
	"fmt"

	"locind/internal/asgraph"
	"locind/internal/netaddr"
)

// PrefixTable maps the synthetic IPv4 address plan onto the AS graph: every
// AS originates one /16 whose upper sixteen bits are its AS number, plus
// optional more-specific /24s (traffic-engineering-style announcements kept
// by the same origin).
type PrefixTable struct {
	byAS []netaddr.Prefix // AS -> its covering /16
	list []PrefixOrigin
}

// PrefixOrigin pairs an announced prefix with its origin AS.
type PrefixOrigin struct {
	Prefix netaddr.Prefix
	Origin int
}

// NewPrefixTable builds the address plan for graph g. moreSpecifics adds
// that many /24 sub-announcements per AS (same origin), giving FIBs the
// longest-prefix structure of real tables.
func NewPrefixTable(g *asgraph.Graph, moreSpecifics int) (*PrefixTable, error) {
	if g.N() > 1<<16 {
		return nil, fmt.Errorf("bgp: address plan supports at most %d ASes, graph has %d", 1<<16, g.N())
	}
	pt := &PrefixTable{byAS: make([]netaddr.Prefix, g.N())}
	for as := 0; as < g.N(); as++ {
		p16 := netaddr.MakePrefix(netaddr.Addr(uint32(as)<<16), 16)
		pt.byAS[as] = p16
		pt.list = append(pt.list, PrefixOrigin{Prefix: p16, Origin: as})
		for k := 0; k < moreSpecifics; k++ {
			p24 := netaddr.MakePrefix(netaddr.Addr(uint32(as)<<16|uint32(k)<<8), 24)
			pt.list = append(pt.list, PrefixOrigin{Prefix: p24, Origin: as})
		}
	}
	return pt, nil
}

// AddrIn returns the host-th address inside AS as's /16; host wraps within
// the prefix. This is how workload generators mint addresses "in" an AS.
func (pt *PrefixTable) AddrIn(as int, host uint64) netaddr.Addr {
	return pt.byAS[as].Nth(host)
}

// All returns every announced (prefix, origin) pair in announcement order.
func (pt *PrefixTable) All() []PrefixOrigin { return pt.list }

// NumPrefixes returns the number of announced prefixes.
func (pt *PrefixTable) NumPrefixes() int { return len(pt.list) }
