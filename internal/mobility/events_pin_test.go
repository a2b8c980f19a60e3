package mobility

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// moveDigest is an FNV-1a hash of every event's (User, Day, From, To), in
// order, each field as eight little-endian bytes.
func moveDigest(evs []MoveEvent) uint64 {
	h := fnv.New64a()
	var b [32]byte
	for _, e := range evs {
		binary.LittleEndian.PutUint64(b[0:], uint64(e.User))
		binary.LittleEndian.PutUint64(b[8:], uint64(e.Day))
		binary.LittleEndian.PutUint64(b[16:], uint64(e.From))
		binary.LittleEndian.PutUint64(b[24:], uint64(e.To))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestMoveEventStreamsPinned holds MoveEvents and IMAPMoveEvents on fixed
// traces to a count and digest taken when a MoveEvent still carried two whole
// Locations. A change in what a move records, in the moves' order or in
// IMAPMoveEvents' draw order fails here by name.
func TestMoveEventStreamsPinned(t *testing.T) {
	for _, c := range []struct {
		users, days int
		seed        int64
		moves       int
		movesDigest uint64
		imap        int
		imapDigest  uint64
	}{
		{40, 7, 5, 1521, 0xa368614fb9d6c8d0, 1146, 0xf6543e2d0a0fa150},
		{40, 7, 21, 1218, 0x6caeb6f4e269161f, 840, 0xab3cb31ebddfc75e},
		{60, 6, 31, 1426, 0x48ea128b84f03b42, 1087, 0x7f3cb7751cdb7ae4},
	} {
		dt := genTrace(t, c.users, c.days, c.seed)
		moves := dt.MoveEvents()
		imap := IMAPMoveEvents(dt, 2.0, rand.New(rand.NewSource(2)))
		if n, d := len(moves), moveDigest(moves); n != c.moves || d != c.movesDigest {
			t.Errorf("trace (%d users, %d days, seed %d): MoveEvents gave %d events, digest %#x; want %d, %#x",
				c.users, c.days, c.seed, n, d, c.moves, c.movesDigest)
		}
		if n, d := len(imap), moveDigest(imap); n != c.imap || d != c.imapDigest {
			t.Errorf("trace (%d users, %d days, seed %d): IMAPMoveEvents gave %d events, digest %#x; want %d, %#x",
				c.users, c.days, c.seed, n, d, c.imap, c.imapDigest)
		}
	}
}
