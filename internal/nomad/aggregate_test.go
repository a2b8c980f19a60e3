package nomad

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
)

func aggEntries(dev string, t0 float64, n int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		net := "cellular"
		if i%2 == 0 {
			net = "wifi"
		}
		es[i] = Entry{
			DeviceID: dev,
			Time:     t0 + float64(i),
			IPAddr:   fmt.Sprintf("10.0.0.%d", i%3),
			NetType:  net,
		}
	}
	return es
}

// TestAggregatesIngest: counts, bounds, and move detection over a simple
// two-batch stream.
func TestAggregatesIngest(t *testing.T) {
	a := NewAggregates()
	dev := HashDeviceID("device-1")
	if !a.IngestBatch(dev+"-b000001", aggEntries(dev, 0, 4)) {
		t.Fatal("first batch rejected")
	}
	if !a.IngestBatch(dev+"-b000002", aggEntries(dev, 4, 2)) {
		t.Fatal("second batch rejected")
	}
	d, ok := a.Device(dev)
	if !ok {
		t.Fatal("device missing from aggregates")
	}
	if d.Records != 6 || d.Batches != 2 || d.LastSeq != 2 {
		t.Fatalf("got records=%d batches=%d lastSeq=%d, want 6/2/2", d.Records, d.Batches, d.LastSeq)
	}
	if d.WiFi != 3 || d.Cellular != 3 {
		t.Fatalf("got wifi=%d cellular=%d, want 3/3", d.WiFi, d.Cellular)
	}
	if d.FirstTime != 0 || d.LastTime != 5 {
		t.Fatalf("got time bounds [%v, %v], want [0, 5]", d.FirstTime, d.LastTime)
	}
	// Addresses cycle 10.0.0.{0,1,2,0} then {0,1}: five transitions, one
	// of which (batch boundary 0->0) is not a move.
	if d.Moves != 4 {
		t.Fatalf("got %d moves, want 4", d.Moves)
	}
	snap := a.Snapshot()
	if snap.Devices != 1 || snap.Records != 6 || snap.Batches != 2 || snap.DupBatches != 0 {
		t.Fatalf("snapshot %+v inconsistent", snap)
	}
}

// TestAggregatesDedup: replays of any already-applied sequence number are
// recognised without a seen-set, because agents upload oldest-first.
func TestAggregatesDedup(t *testing.T) {
	a := NewAggregates()
	dev := HashDeviceID("device-2")
	b1, b2 := aggEntries(dev, 0, 3), aggEntries(dev, 3, 3)
	if !a.IngestBatch(dev+"-b000001", b1) {
		t.Fatal("b1 rejected")
	}
	if a.IngestBatch(dev+"-b000001", b1) {
		t.Fatal("b1 replay applied twice")
	}
	if !a.IngestBatch(dev+"-b000002", b2) {
		t.Fatal("b2 rejected")
	}
	// Late replay of an older sequence (response lost, retried after b2).
	if a.IngestBatch(dev+"-b000001", b1) {
		t.Fatal("stale b1 replay applied after b2")
	}
	d, _ := a.Device(dev)
	if d.Records != 6 || d.Batches != 2 {
		t.Fatalf("got records=%d batches=%d after replays, want 6/2", d.Records, d.Batches)
	}
	if snap := a.Snapshot(); snap.DupBatches != 2 {
		t.Fatalf("got %d dup batches, want 2", snap.DupBatches)
	}
	// A second device is tracked independently.
	dev2 := HashDeviceID("device-3")
	if !a.IngestBatch(dev2+"-b000001", aggEntries(dev2, 0, 1)) {
		t.Fatal("other device's b1 rejected")
	}
}

// TestAggregatesDigestOrderIndependence: the fleet digest depends only on
// each device's record stream, not on cross-device arrival order.
func TestAggregatesDigestOrderIndependence(t *testing.T) {
	devA, devB := HashDeviceID("device-a"), HashDeviceID("device-b")
	a1, a2 := aggEntries(devA, 0, 3), aggEntries(devA, 3, 3)
	b1 := aggEntries(devB, 0, 4)

	x := NewAggregates()
	x.IngestBatch(devA+"-b000001", a1)
	x.IngestBatch(devA+"-b000002", a2)
	x.IngestBatch(devB+"-b000001", b1)

	y := NewAggregates()
	y.IngestBatch(devB+"-b000001", b1)
	y.IngestBatch(devA+"-b000001", a1)
	y.IngestBatch(devA+"-b000002", a2)

	if dx, dy := x.Snapshot().Digest, y.Snapshot().Digest; dx != dy {
		t.Fatalf("interleaving changed fleet digest: %s vs %s", dx, dy)
	}

	// Changing one record's content must change the digest.
	z := NewAggregates()
	a1c := append([]Entry(nil), a1...)
	a1c[1].IPAddr = "10.9.9.9"
	z.IngestBatch(devA+"-b000001", a1c)
	z.IngestBatch(devA+"-b000002", a2)
	z.IngestBatch(devB+"-b000001", b1)
	if x.Snapshot().Digest == z.Snapshot().Digest {
		t.Fatal("record mutation left fleet digest unchanged")
	}
}

// TestStreamingServerUpload: the server accepts uploads through the real
// HTTP path and dedups replays.
func TestStreamingServerUpload(t *testing.T) {
	srv := NewStreamingServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	dev := HashDeviceID("device-9")
	ctx := context.Background()
	if err := c.Upload(ctx, dev+"-b000001", aggEntries(dev, 0, 5)); err != nil {
		t.Fatal(err)
	}
	if err := c.Upload(ctx, dev+"-b000001", aggEntries(dev, 0, 5)); err != nil {
		t.Fatal(err) // replay is still 204 from the device's view
	}
	snap := srv.Agg.Snapshot()
	if snap.Records != 5 || snap.Batches != 1 || snap.DupBatches != 1 {
		t.Fatalf("snapshot %+v after replay, want 5 records / 1 batch / 1 dup", snap)
	}
}

// TestKeyedUploadOfAnotherDeviceRefused: a keyed batch carrying entries of
// a device other than the one its ID names is a 400 and stores nothing —
// accepted, it would advance the wrong device's dedup sequence, and that
// device's own batch with a lower number would later be answered 204 and
// dropped as a replay.
func TestKeyedUploadOfAnotherDeviceRefused(t *testing.T) {
	srv := NewStreamingServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()
	devA, devB := "dev-aaaaaaaaaaaaaaaa", "dev-bbbbbbbbbbbbbbbb"
	if err := c.Upload(ctx, devA+"-b000005", aggEntries(devB, 0, 3)); err == nil {
		t.Fatalf("a batch keyed to %s carrying %s entries was accepted", devA, devB)
	}
	if snap := srv.Agg.Snapshot(); snap.Records != 0 || snap.Batches != 0 {
		t.Fatalf("the refused batch left %+v", snap)
	}
	if err := c.Upload(ctx, devB+"-b000001", aggEntries(devB, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if d, _ := srv.Agg.Device(devB); d.Records != 3 || d.Batches != 1 {
		t.Fatalf("%s's own first batch: %d records in %d batches stored, want 3 in 1", devB, d.Records, d.Batches)
	}
}

// TestSplitBatchID: Agent-form IDs parse; Aggregates applies nothing under
// an ID that does not, nor an empty batch under one that does.
func TestSplitBatchID(t *testing.T) {
	dev, seq, ok := splitBatchID("dev-00ff-b000012")
	if !ok || dev != "dev-00ff" || seq != 12 {
		t.Fatalf("got (%q, %d, %v)", dev, seq, ok)
	}
	for _, bad := range []string{"", "nodash", "-b000001", "dev-1-bxyz"} {
		if _, _, ok := splitBatchID(bad); ok {
			t.Fatalf("%q parsed as a keyed batch ID", bad)
		}
	}
	a := NewAggregates()
	d := HashDeviceID("device-4")
	if a.IngestBatch("", aggEntries(d, 0, 2)) || a.IngestBatch(d+"-b000001", nil) {
		t.Fatal("a batch without a parseable ID or without entries was applied")
	}
	if snap := a.Snapshot(); snap != (AggSnapshot{Digest: snap.Digest}) {
		t.Fatalf("snapshot %+v, want nothing applied", snap)
	}
}
