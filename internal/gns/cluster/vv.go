// Package cluster is the store behind package gns's UDP front end: a sharded,
// replicated name-mapping cluster of N consistent-hash shards of the name
// space, each owned by R independent gns.Server replicas, with quorum
// writes, read-your-writes on the owning shard, per-replica health-checked
// failover (half-open circuit breakers), hedged lookups, anti-entropy
// repair after partitions heal, and a degraded mode that serves
// last-known-good bindings (flagged stale) when a shard's quorum is
// unreachable — the distributed mapping layer the paper's resolution
// architectures assume, engineered to the failure model of
// internal/faultnet.
package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// VV is a version vector: per-origin update counters, kept sorted by
// origin. It orders the causal history of one name's record — a replica
// accepts an incoming record exactly when its VV supersedes the stored one
// — and anti-entropy reconciles diverged replicas by merging VVs. The zero
// value (nil) is the empty history, superseded by everything non-empty.
type VV []VVEntry

// VVEntry is one origin's counter.
type VVEntry struct {
	Origin uint64
	Ctr    uint64
}

// byOrigin orders entries by origin, the order a VV keeps them in.
func byOrigin(a, b VVEntry) int { return cmp.Compare(a.Origin, b.Origin) }

// Get returns origin's counter (0 when absent).
func (v VV) Get(origin uint64) uint64 {
	for _, e := range v {
		if e.Origin == origin {
			return e.Ctr
		}
	}
	return 0
}

// Bump returns a copy of v with origin's counter incremented.
func (v VV) Bump(origin uint64) VV {
	out := make(VV, 0, len(v)+1)
	bumped := false
	for _, e := range v {
		if e.Origin == origin {
			e.Ctr++
			bumped = true
		}
		out = append(out, e)
	}
	if !bumped {
		out = append(out, VVEntry{Origin: origin, Ctr: 1})
		slices.SortFunc(out, byOrigin)
	}
	return out
}

// Ordering is the causal relation between two version vectors.
type Ordering int

const (
	// Equal: identical histories.
	Equal Ordering = iota
	// Before: the receiver's history is a strict prefix of the argument's.
	Before
	// After: the receiver strictly extends the argument's history.
	After
	// Concurrent: the histories diverge; neither saw the other's writes.
	Concurrent
)

// Compare relates v to o causally.
func (v VV) Compare(o VV) Ordering {
	vLess, oLess := false, false
	for _, e := range v {
		oc := o.Get(e.Origin)
		if e.Ctr > oc {
			oLess = true
		} else if e.Ctr < oc {
			vLess = true
		}
	}
	for _, e := range o {
		if v.Get(e.Origin) < e.Ctr {
			vLess = true
		}
	}
	switch {
	case vLess && oLess:
		return Concurrent
	case vLess:
		return Before
	case oLess:
		return After
	default:
		return Equal
	}
}

// Merge returns the element-wise maximum of both histories — the join that
// anti-entropy installs after reconciling a divergence.
func (v VV) Merge(o VV) VV {
	out := make(VV, 0, len(v)+len(o))
	out = append(out, v...)
	for _, e := range o {
		found := false
		for i := range out {
			if out[i].Origin == e.Origin {
				if e.Ctr > out[i].Ctr {
					out[i].Ctr = e.Ctr
				}
				found = true
				break
			}
		}
		if !found {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, byOrigin)
	return out
}

// Sum is the total number of updates in the history. It is monotone under
// Bump and Merge, which makes it the scalar Version surfaced through the
// plain lookup protocol.
func (v VV) Sum() uint64 {
	var s uint64
	for _, e := range v {
		s += e.Ctr
	}
	return s
}

// Encode renders v in its canonical wire form "origin:ctr,origin:ctr"
// (origins ascending), "" for the empty history. Canonical means equal
// vectors encode to equal strings, so state digests can compare encodings.
// The digits are appended into a stack buffer, so the string is the one
// allocation.
func (v VV) Encode() string {
	if len(v) == 0 {
		return ""
	}
	var stack [64]byte
	b := stack[:0]
	for i, e := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, e.Origin, 10)
		b = append(b, ':')
		b = strconv.AppendUint(b, e.Ctr, 10)
	}
	return string(b)
}

// encodes reports whether s is v's canonical encoding, v.Encode() == s,
// without building the encoding: the check a replica's ack and a lookup's
// answer take before parsing a history the reader already holds.
//
//lint:zeroalloc per call
func (v VV) encodes(s string) bool {
	var digits [20]byte
	for i, e := range v {
		if i > 0 {
			if s == "" || s[0] != ',' {
				return false
			}
			s = s[1:]
		}
		var ok bool
		if s, ok = cutDigits(s, strconv.AppendUint(digits[:0], e.Origin, 10)); !ok {
			return false
		}
		if s == "" || s[0] != ':' {
			return false
		}
		if s, ok = cutDigits(s[1:], strconv.AppendUint(digits[:0], e.Ctr, 10)); !ok {
			return false
		}
	}
	return s == ""
}

// cutDigits strips the prefix d from s, reporting whether s began with it.
func cutDigits(s string, d []byte) (string, bool) {
	if len(s) < len(d) || s[:len(d)] != string(d) {
		return s, false
	}
	return s[len(d):], true
}

// ParseVV decodes the Encode form. The empty string is the empty history.
// Whatever it accepts it returns canonical — origins strictly ascending, no
// zero counters (an absent origin already counts as zero) — so Encode of
// the result is a fixed point and equal histories hold equal bytes however
// a peer spelled them; an origin listed twice has no such reading and is an
// error. Input already in Encode's order, the only kind this module's own
// writers produce, is parsed in one pass without sorting.
func ParseVV(s string) (VV, error) {
	if s == "" {
		return nil, nil
	}
	out := make(VV, 0, strings.Count(s, ",")+1)
	ascending := true
	for rest, more := s, true; more; {
		var p string
		p, rest, more = strings.Cut(rest, ",")
		o, c, ok := strings.Cut(p, ":")
		if !ok {
			return nil, fmt.Errorf("cluster: bad vv entry %q", p)
		}
		origin, err := strconv.ParseUint(o, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("cluster: bad vv origin %q: %v", o, err)
		}
		ctr, err := strconv.ParseUint(c, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("cluster: bad vv counter %q: %v", c, err)
		}
		if ctr == 0 {
			continue
		}
		if n := len(out); n > 0 && out[n-1].Origin >= origin {
			ascending = false
		}
		out = append(out, VVEntry{Origin: origin, Ctr: ctr})
	}
	if !ascending {
		slices.SortFunc(out, byOrigin)
		for i := 1; i < len(out); i++ {
			if out[i].Origin == out[i-1].Origin {
				return nil, fmt.Errorf("cluster: vv origin %d listed twice", out[i].Origin)
			}
		}
	}
	return out, nil
}

// Supersedes reports whether a record carrying v should replace one
// carrying cur: v strictly extends cur's history, or the two are
// concurrent and v wins the deterministic tiebreak. Every replica applies
// the same rule, so convergence does not depend on delivery order.
func (v VV) Supersedes(cur VV) bool {
	switch v.Compare(cur) {
	case After:
		return true
	case Concurrent:
		return v.winsTiebreak(cur)
	default:
		return false
	}
}

// winsTiebreak deterministically orders concurrent histories: the longer
// total history wins (more observed updates = more recent in the
// last-writer-wins sense), ties broken by the lexicographically greater
// canonical encoding. Symmetric and total: for concurrent a ≠ b exactly
// one of a.winsTiebreak(b), b.winsTiebreak(a) holds.
func (v VV) winsTiebreak(o VV) bool {
	vs, os := v.Sum(), o.Sum()
	if vs != os {
		return vs > os
	}
	return v.Encode() > o.Encode()
}
