package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"locind/internal/gns"
	"locind/internal/netaddr"
)

// VRecord is one replica's copy of a binding: the addresses plus the
// version-vector history that produced them.
type VRecord struct {
	Name  string
	Addrs []netaddr.Addr
	VV    VV
}

// record converts to the public gns.Record, surfacing the VV's total
// update count as the scalar version (monotone under Bump and Merge).
func (r VRecord) record() gns.Record {
	return gns.Record{Name: r.Name, Addrs: r.Addrs, Version: r.VV.Sum()}
}

// Store is one replica's local state: a versioned name→addresses map. It
// implements gns.Backend, so a stock gns.Server fronts it over UDP, and
// gns.OpHandler for the replication ops the cluster client speaks:
//
//	vput  — install a record with an explicit version vector; the store
//	        keeps whichever history Supersedes the other, so retried and
//	        reordered puts are idempotent.
//	vget  — read the record with its version vector.
//	ping  — health probe; answers OK with no side effects.
//
// The public lookup/update ops work too: an unversioned update bumps the
// store's own origin, which the next anti-entropy pass reconciles with the
// rest of the replica set.
type Store struct {
	origin uint64 // VV origin for unversioned direct updates

	mu   sync.Mutex
	recs map[string]VRecord
}

// NewStore creates an empty replica store. origin is the identity its
// unversioned direct updates bump; replicas in one cluster get distinct
// origins.
func NewStore(origin uint64) *Store {
	return &Store{origin: origin, recs: map[string]VRecord{}}
}

// Lookup implements gns.Backend: a single-replica read.
func (s *Store) Lookup(name string) (gns.Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.recs[name]
	if !ok {
		return gns.Record{}, fmt.Errorf("%w: %q", gns.ErrNotFound, name)
	}
	return rec.record(), nil
}

// Update implements gns.Backend: an unversioned write bumps the store's
// own origin. The cluster client never uses this (it replicates explicit
// VVs with vput); it exists so a replica still speaks the full public
// protocol when addressed directly.
func (s *Store) Update(name string, addrs []netaddr.Addr) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	vv := s.recs[name].VV.Bump(s.origin)
	s.recs[name] = VRecord{Name: name, Addrs: append([]netaddr.Addr(nil), addrs...), VV: vv}
	return vv.Sum(), nil
}

// Put installs rec if its history supersedes the stored one, reporting
// whether it was installed. The stored record after Put carries the merged
// history either way, so a replica that has seen both sides of a
// divergence never regresses below either.
func (s *Store) Put(rec VRecord) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.recs[rec.Name]
	if !ok {
		s.recs[rec.Name] = rec
		return true
	}
	if rec.VV.Supersedes(cur.VV) {
		merged := rec
		merged.VV = rec.VV.Merge(cur.VV)
		s.recs[rec.Name] = merged
		return true
	}
	// The stored record stays authoritative but absorbs the incoming
	// history, so a later concurrent write cannot flip the tiebreak back.
	if cur.VV.Compare(rec.VV) == Concurrent {
		cur.VV = cur.VV.Merge(rec.VV)
		s.recs[rec.Name] = cur
	}
	return false
}

// Get returns the stored record for name.
func (s *Store) Get(name string) (VRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.recs[name]
	return rec, ok
}

// Len returns the number of bindings stored.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Names returns the stored names, sorted — the deterministic iteration
// anti-entropy and state digests build on.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.recs))
	for n := range s.recs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Digest writes a canonical rendering of the store — sorted names, each
// with its addresses and encoded VV — into b, and folds it into h. Two
// stores with identical state produce identical digests byte for byte.
func (s *Store) Digest(b *strings.Builder, h *fnv64Writer) {
	for _, name := range s.Names() {
		rec, _ := s.Get(name)
		line := name + " ["
		for i, a := range rec.Addrs {
			if i > 0 {
				line += " "
			}
			line += a.String()
		}
		line += "] " + rec.VV.Encode() + "\n"
		b.WriteString(line)
		h.WriteString(line)
	}
}

// fnv64Writer accumulates an FNV-1a hash over digest lines.
type fnv64Writer struct{ h uint64 }

func newFNV64Writer() *fnv64Writer { return &fnv64Writer{h: fnvOffset64} }

func (w *fnv64Writer) WriteString(s string) { w.h = fnvString(w.h, s) }

// Sum returns the accumulated hash.
func (w *fnv64Writer) Sum() uint64 { return w.h }

// HandleOp implements gns.OpHandler: the replication ops.
func (s *Store) HandleOp(req gns.Request) (gns.Response, bool) {
	switch req.Op {
	case "ping":
		return gns.Response{OK: true}, true
	case "vget":
		rec, ok := s.Get(req.Name)
		if !ok {
			return errResp(fmt.Errorf("%w: %q", gns.ErrNotFound, req.Name)), true
		}
		resp := gns.Response{OK: true, Name: rec.Name, Version: rec.VV.Sum(), VV: rec.VV.Encode()}
		for _, a := range rec.Addrs {
			resp.Addrs = append(resp.Addrs, a.String())
		}
		return resp, true
	case "vput":
		vv, err := ParseVV(req.VV)
		if err != nil {
			return errResp(fmt.Errorf("%w: %v", gns.ErrBadRequest, err)), true
		}
		if len(vv) == 0 {
			return errResp(fmt.Errorf("%w: vput requires a version vector", gns.ErrBadRequest)), true
		}
		addrs, err := parseAddrs(req.Addrs)
		if err != nil {
			return errResp(fmt.Errorf("%w: bad address: %v", gns.ErrBadRequest, err)), true
		}
		s.Put(VRecord{Name: req.Name, Addrs: addrs, VV: vv})
		// Acknowledge with the now-stored history: on the fast path the
		// one just put, after a lost-ack retry the merged superset —
		// either way the client learns what the replica holds.
		stored, _ := s.Get(req.Name)
		return gns.Response{OK: true, Name: req.Name, Version: stored.VV.Sum(), VV: stored.VV.Encode()}, true
	}
	return gns.Response{}, false
}

// parseAddrs parses a wire address list: all of it or an error.
func parseAddrs(wire []string) ([]netaddr.Addr, error) {
	addrs := make([]netaddr.Addr, 0, len(wire))
	for _, sa := range wire {
		a, err := netaddr.ParseAddr(sa)
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, a)
	}
	return addrs, nil
}

// errResp mirrors the server's structured-error form for extension ops.
func errResp(err error) gns.Response {
	return gns.Response{Code: gns.CodeFor(err), Err: err.Error()}
}
