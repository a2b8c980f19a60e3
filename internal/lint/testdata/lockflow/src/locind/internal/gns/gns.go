// Package gns stands in for locind/internal/gns in the lockflow fixtures:
// the two exchange entry points on the blocking watchlist, with bodies that
// do nothing, so a finding on a call to either comes from the watchlist and
// not from what the body does.
package gns

// Transport mirrors the pooled client transport.
type Transport struct{}

// Exchange mirrors the pooled round trip.
func (t *Transport) Exchange(addr string) error { return nil }

// Exchange mirrors the one-shot round trip.
func Exchange(addr string) error { return nil }
