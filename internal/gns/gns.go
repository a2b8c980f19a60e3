// Package gns implements the front of the extra-network name-resolution
// service that the name-resolution architecture of §2 depends on (DNS
// today, or a next-generation global name service like MobilityFirst's GNS
// [49]): a name→addresses store where a mobility event costs exactly one
// update, absorbed by a horizontally scaled service instead of the routing
// fabric.
//
// This package holds what every node and client of that service shares: the
// Record, the one-datagram-per-request wire protocol and its append codec
// (wire.go, codec.go), the UDP front end that serves an OpHandler one
// datagram per request (server.go) and the pooled client Transport
// (transport.go). The store itself — sharding, K-of-N replication, quorum
// writes, version vectors, anti-entropy repair — is package cluster, whose
// Store is the one production OpHandler (its vget and vput are the whole
// wire protocol) and whose Client is the one production caller of the
// Transport; tests here put a map behind the Server and a bare Transport
// under a reliable.Policy in front of it.
package gns

import "locind/internal/netaddr"

// Record is one name binding.
type Record struct {
	Name    string
	Addrs   []netaddr.Addr
	Version uint64
	// Stale marks a binding served from a last-known-good cache while the
	// authoritative service was unreachable — the degraded operating mode.
	// A fresh resolution always has Stale false.
	Stale bool
}
