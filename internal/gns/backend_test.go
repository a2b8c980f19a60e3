package gns

import (
	"fmt"
	"sync"

	"locind/internal/netaddr"
)

// mapBackend is the least Backend a Server can front — one map, one version
// counter — for tests that are about the Server, the Transport, the Client
// or faultnet, not about a store. The production Backend is cluster.Store.
type mapBackend struct {
	mu   sync.Mutex
	ver  uint64
	recs map[string]Record
}

func newMapBackend() *mapBackend { return &mapBackend{recs: map[string]Record{}} }

func (b *mapBackend) Update(name string, addrs []netaddr.Addr) (uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ver++
	b.recs[name] = Record{Name: name, Addrs: append([]netaddr.Addr(nil), addrs...), Version: b.ver}
	return b.ver, nil
}

func (b *mapBackend) Lookup(name string) (Record, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rec, ok := b.recs[name]
	if !ok {
		return Record{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return rec, nil
}
