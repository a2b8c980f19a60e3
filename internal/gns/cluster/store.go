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

// Store is one replica's local state: a versioned name→addresses map. It
// implements gns.OpHandler, so a stock gns.Server fronts it over UDP, and
// its two replication ops are the whole protocol a replica speaks:
//
//	vput  — install a record with an explicit version vector; the store
//	        keeps whichever history Supersedes the other, so retried and
//	        reordered puts are idempotent.
//	vget  — read the record with its version vector.
//
// Any other op is a bad request, so every write a replica accepts carries
// a client's version vector and went out as one leg of a quorum write.
type Store struct {
	mu   sync.Mutex
	recs map[string]VRecord
}

// NewStore creates an empty replica store. origin is unused: replicas mint
// no version-vector origins of their own. It stays until the benchmark's
// one caller stops passing it (ROADMAP item 1).
func NewStore(origin uint64) *Store {
	return &Store{recs: map[string]VRecord{}}
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
// with its addresses and encoded VV — into b. Two stores with identical
// state produce identical digests byte for byte.
func (s *Store) Digest(b *strings.Builder) {
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
	}
}

// HandleOp implements gns.OpHandler: the replication ops.
func (s *Store) HandleOp(req gns.Request) (gns.Response, bool) {
	switch req.Op {
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

// errResp mirrors the server's structured-error form for the replication
// ops.
func errResp(err error) gns.Response {
	return gns.Response{Code: gns.CodeFor(err), Err: err.Error()}
}
