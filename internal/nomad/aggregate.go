package nomad

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Aggregates is the server's store: instead of retaining every record, it
// folds each accepted batch into per-device running aggregates —
// O(devices), not O(records), at any fleet size.
// Exactly-once ingestion keys on the batch ID's per-device sequence number:
// devices seal and upload batches oldest-first with monotonically increasing
// sequence numbers (the upload contract since PR 1, kept by the event
// engine), so "seq <= last applied" recognises every replay without keeping
// a set of all batch IDs ever seen.
type Aggregates struct {
	mu      sync.Mutex
	devices map[string]*DeviceAgg

	records    uint64
	batches    uint64
	dupBatches uint64
}

// DeviceAgg is one device's running aggregate.
type DeviceAgg struct {
	// Records is the count of stored log records.
	Records uint64
	// Batches is the count of applied (non-duplicate) batches.
	Batches uint64
	// LastSeq is the highest applied batch sequence number.
	LastSeq uint32
	// WiFi and Cellular count records by access network type.
	WiFi, Cellular uint64
	// Moves counts address transitions within the stored stream.
	Moves uint64
	// FirstTime and LastTime bound the stored record times (hours).
	FirstTime, LastTime float64
	// Digest is an order-sensitive FNV-1a over the record stream
	// (time|ip|net per record) — the replay-determinism fingerprint.
	Digest uint64

	lastAddr string
}

// NewAggregates builds an empty aggregate store.
func NewAggregates() *Aggregates {
	return &Aggregates{devices: map[string]*DeviceAgg{}}
}

// fnv1a folds s into h with 64-bit FNV-1a.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

const fnvOffset = 14695981039346656037

// splitBatchID separates a device-form batch ID ("<device>-b%06d") into its
// device prefix and sequence number.
func splitBatchID(batchID string) (device string, seq uint32, ok bool) {
	i := strings.LastIndex(batchID, "-b")
	if i <= 0 {
		return "", 0, false
	}
	n, err := strconv.ParseUint(batchID[i+2:], 10, 32)
	if err != nil {
		return "", 0, false
	}
	return batchID[:i], uint32(n), true
}

// IngestBatch folds one uploaded batch into the running aggregates,
// applying it exactly once per batch ID, by its device's sequence; every
// entry is taken as the first entry's device's (the upload handler refuses a
// batch with an entry of any device but the one the ID names). It reports
// whether the batch was applied: false is a replay, or an ID splitBatchID
// does not parse or an empty batch, neither of which changes anything.
func (a *Aggregates) IngestBatch(batchID string, batch []Entry) bool {
	_, seq, keyed := splitBatchID(batchID)
	if !keyed || len(batch) == 0 {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	// Keyed by the entry's own string, not a slice of the batch ID, which
	// would keep the whole ID alive for as long as the device is stored.
	device := batch[0].DeviceID
	d := a.devices[device]
	switch {
	case d == nil:
		d = &DeviceAgg{FirstTime: math.Inf(1), LastTime: math.Inf(-1), Digest: fnvOffset}
		a.devices[device] = d
	case seq <= d.LastSeq:
		a.dupBatches++
		return false
	}
	a.batches++
	d.Batches++
	d.LastSeq = seq
	for i := range batch {
		e := &batch[i]
		d.Records++
		a.records++
		switch e.NetType {
		case "wifi":
			d.WiFi++
		case "cellular":
			d.Cellular++
		}
		if d.lastAddr != "" && d.lastAddr != e.IPAddr {
			d.Moves++
		}
		d.lastAddr = e.IPAddr
		if e.Time < d.FirstTime {
			d.FirstTime = e.Time
		}
		if e.Time > d.LastTime {
			d.LastTime = e.Time
		}
		h := (d.Digest ^ uint64(math.Float64bits(e.Time))) * 1099511628211
		h = fnv1a(h, e.IPAddr)
		h = fnv1a(h, e.NetType)
		d.Digest = h
	}
	return true
}

// Device returns a copy of one device's aggregate.
func (a *Aggregates) Device(deviceID string) (DeviceAgg, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	d, ok := a.devices[deviceID]
	if !ok {
		return DeviceAgg{}, false
	}
	return *d, true
}

// AggSnapshot is a point-in-time summary of the whole ingest stream.
type AggSnapshot struct {
	Devices    int
	Records    uint64
	Batches    uint64
	DupBatches uint64
	// Digest fingerprints the full per-device record streams: identical
	// across runs iff every device stored the identical record sequence,
	// regardless of cross-device arrival order.
	Digest string
}

// Snapshot summarises the aggregates. The fleet digest folds the per-device
// digests in sorted device order, so it is independent of upload
// interleaving but pins every record of every device.
func (a *Aggregates) Snapshot() AggSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := make([]string, 0, len(a.devices))
	for id := range a.devices {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := uint64(fnvOffset)
	for _, id := range ids {
		d := a.devices[id]
		h = fnv1a(h, id)
		h = (h ^ d.Digest) * 1099511628211
		h = (h ^ d.Records) * 1099511628211
	}
	return AggSnapshot{
		Devices:    len(a.devices),
		Records:    a.records,
		Batches:    a.batches,
		DupBatches: a.dupBatches,
		Digest:     fmt.Sprintf("%016x", h),
	}
}
