// Package engine is the device side of the NomadLog pipeline at every scale
// (nomadd's forty devices, the million-device soak): a single-threaded
// event-heap scheduler that walks every device's mobility trace in one
// virtual-time order. Each device is a ~100-byte slab entry plus its
// pending-record buffer; the only goroutine is the caller's, so a shard costs
// no stacks, no channels, and — once its buffers reach steady-state capacity
// — zero allocations per scheduled event (pinned by the allocguard test).
//
// Scale-out is sharding, not concurrency within a shard: devices partition
// into contiguous index ranges, one Engine per range, driven in parallel
// via internal/par. Per-(user, day) derived seeds (mobility.FleetGen) make
// every device's trace independent of shard count, so the records a device
// uploads are identical at any parallelism degree.
//
// "The Agent" below is the goroutine-per-device implementation the engine
// replaced, now its test oracle (agent_test.go). The upload path preserves
// the Agent contract exactly: records buffer per device, a long-enough WiFi
// dwell seals them into a batch with the next "<hashedID>-b%06d" identity,
// and sealed batches drain oldest-first, stopping at the first batch that
// exhausts its retries. Backpressure is explicit: MaxPending bounds loose
// records per device (overflow forces an early seal), MaxQueuedBatches bounds
// sealed batches (overflow evicts the oldest, counted as DroppedBatches).
//
// One deliberate divergence: the Agent asks an echo endpoint for its
// address before logging each record (/ip), stating the visit's address in
// a header, so the reply is that address by construction. The engine logs
// the visit's address directly and the Server has no echo; the equivalence
// test answers the Agent's /ip with a test-local one. Stored records are
// byte-identical (that test pins this); only the /ip request count differs.
package engine

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"locind/internal/mobility"
	"locind/internal/netaddr"
	"locind/internal/nomad"
	"locind/internal/reliable"
)

// Uploader stores one sealed batch; *nomad.Client implements it. The batch
// slice is reused across calls — implementations must not retain it after
// returning.
type Uploader interface {
	Upload(ctx context.Context, batchID string, batch []nomad.Entry) error
}

// visit is the arena form of a mobility.Visit: just what the event loop
// needs, 24 bytes instead of 48.
type visit struct {
	start float64
	dur   float64 // hours; float64 so dwell comparisons match the Agent bit-for-bit
	addr  netaddr.Addr
	net   uint8 // mobility.NetType
}

// rec is one buffered log record. The address stays numeric until drain
// time — strings exist only on the (allocating, off-hot-path) upload path.
type rec struct {
	t    float64
	addr netaddr.Addr
	net  uint8
}

// batchDesc describes one sealed batch: its sequence number and how many
// records it covers. The records themselves sit in the device's FIFO
// buffer — sealing moves a boundary, it copies nothing.
type batchDesc struct {
	seq uint32
	n   uint32
}

// deviceState is one device's slab entry.
type deviceState struct {
	// recs[head:] are live records, oldest first: the first batchedN are
	// covered by sealed batches (in batches order), the rest are loose.
	recs     []rec
	batches  []batchDesc
	head     int32
	batchedN int32
	seq      uint32 // last sealed sequence number

	// Window into the visit arena: the device's current day.
	winDay uint32 // arena parity selector
	winOff uint32
	winLen uint32
	next   uint32 // next window index to process
	day    int32  // next day to generate

	ustate mobility.UserState
}

// Fleet supplies device days. *mobility.FleetGen generates them on demand
// from derived seeds (the soak, the benchmark); *mobility.DeviceTrace
// replays a pre-generated trace (nomadd's default mode, the tests). Day
// appends user's visits for the given day onto buf; st is the user's
// cross-day state and sc generation scratch, both owned by the engine.
type Fleet interface {
	Day(user, day int, st *mobility.UserState, buf []mobility.Visit, sc *mobility.DayScratch) []mobility.Visit
}

// Config configures an Engine.
type Config struct {
	// Fleet streams each device day by day at bounded memory; UserBase+i
	// is device i's user index (raw ID "device-<UserBase+i>"), so shards
	// cover disjoint contiguous user ranges.
	Fleet    Fleet
	UserBase int
	Devices  int

	// Days is the trace length in days.
	Days int

	// MaxPending bounds loose records per device: reaching it forces a
	// seal even without an upload opportunity. 0 = unbounded (the Agent's
	// behaviour, and the setting that keeps batch identities
	// identical to the Agent's).
	MaxPending int
	// MaxQueuedBatches bounds sealed batches per device: sealing past it
	// evicts the oldest batch (counted, never silent). 0 = unbounded.
	MaxQueuedBatches int

	// Uploader receives sealed batches; nil discards nothing and uploads
	// nothing (batches queue up to MaxQueuedBatches) — the benchmark and
	// allocguard mode.
	Uploader Uploader
	// UploadRetries, Backoff, Rand, Sleep, and RetryMetrics parameterize
	// the per-batch retry loop exactly as on the Agent. UploadRetries 0
	// takes the Agent default (2); set it negative for a single attempt.
	UploadRetries int
	Backoff       reliable.Backoff
	Rand          *rand.Rand
	Sleep         func(ctx context.Context, d time.Duration) error
	RetryMetrics  *reliable.Metrics

	// FlushAtEnd schedules a final seal-and-drain per device at trace end
	// (the Agent's explicit Flush).
	FlushAtEnd bool

	// GracefulUploads decouples in-flight uploads from cancellation: each
	// upload attempt runs on a context that survives ctx being cancelled
	// (bounded by the Uploader's own timeouts), and cancellation takes
	// effect at the next batch or event boundary instead of chopping a
	// request mid-flight. This is what lets nomadd drain on SIGTERM.
	GracefulUploads bool

	// Metrics, when non-nil, receives engine counters and gauges; shards
	// may share one.
	Metrics *Metrics
}

// Engine walks one shard of the fleet. Not safe for concurrent use — run
// one Engine per goroutine and shard the fleet across them.
type Engine struct {
	cfg     Config
	met     *Metrics
	up      Uploader
	devs    []deviceState
	ids     []string // hashed device IDs, fixed at construction
	heap    evHeap
	endTime float64

	// Visit arenas by day parity. arenaLive counts the device windows
	// pointing into each, and an arena is reset only when no window does.
	// When every device has visits every day, the first claim of day d
	// always finds arena[d&1] dead: it happens while processing a day-(d-1)
	// visit, at virtual time ≥ 24(d-1), and every day-(d-2) visit starts
	// before that. A device that skips an empty day claims early, finds
	// the arena still live and appends behind its tenant instead.
	arena     [2][]visit
	arenaLive [2]int32
	scratch   *mobility.DayScratch

	visitBuf []mobility.Visit
	entryBuf []nomad.Entry

	steps    int64
	attempts int64
}

// minUploadDwell is the minimum WiFi dwell (hours) treated as an upload
// opportunity: the Agent's value.
const minUploadDwell = 2.0

// Action flags returned by stepVisit so the allocating follow-ups (day
// generation, batch upload) stay out of the zero-alloc event step.
const (
	actDrain uint8 = 1 << iota
	actRefill
)

// New validates cfg and builds the engine with every device scheduled at
// its first visit.
func New(cfg Config) (*Engine, error) {
	if cfg.Fleet == nil {
		return nil, fmt.Errorf("engine: no Fleet")
	}
	if cfg.Devices <= 0 {
		return nil, fmt.Errorf("engine: need at least one device, have %d", cfg.Devices)
	}
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("engine: need positive days, have %d", cfg.Days)
	}
	switch {
	case cfg.UploadRetries == 0:
		cfg.UploadRetries = 2
	case cfg.UploadRetries < 0:
		cfg.UploadRetries = 0
	}
	if cfg.Backoff == (reliable.Backoff{}) {
		cfg.Backoff = reliable.Backoff{Base: 100 * time.Millisecond, Max: 2 * time.Second}
	}
	e := &Engine{
		cfg:     cfg,
		met:     cfg.Metrics,
		up:      cfg.Uploader,
		devs:    make([]deviceState, cfg.Devices),
		ids:     make([]string, cfg.Devices),
		endTime: float64(cfg.Days) * 24,
		scratch: mobility.NewDayScratch(),
	}
	if e.met == nil {
		e.met = noMetrics
	}
	for i := range e.ids {
		e.ids[i] = nomad.HashDeviceID(fmt.Sprintf("device-%d", cfg.UserBase+i))
	}
	e.start()
	return e, nil
}

// Steps returns how many events the engine has processed.
func (e *Engine) Steps() int64 { return e.steps }

// UploadAttempts returns how many Uploader calls were made (retries
// included).
func (e *Engine) UploadAttempts() int64 { return e.attempts }

// start schedules every device's first event, from a zeroed device slab.
func (e *Engine) start() {
	for i := range e.devs {
		e.refill(int32(i))
	}
}

// window returns the device's current visit window.
func (e *Engine) window(d *deviceState) []visit {
	return e.arena[d.winDay&1][d.winOff : d.winOff+d.winLen]
}

// loose returns the device's records not yet covered by a sealed batch.
func (e *Engine) loose(d *deviceState) int {
	return len(d.recs) - int(d.head) - int(d.batchedN)
}

// QueuedBatches returns the shard's sealed batches still awaiting upload.
func (e *Engine) QueuedBatches() int {
	n := 0
	for i := range e.devs {
		n += len(e.devs[i].batches)
	}
	return n
}

// Run processes the schedule to completion or ctx cancellation. Uploads
// happen inline (the engine is single-threaded); a batch that exhausts its
// retries stays queued for the device's next opportunity, exactly like the
// Agent.
func (e *Engine) Run(ctx context.Context) error {
	for e.heap.len() > 0 {
		e.steps++
		if e.steps&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		ev := e.heap.pop()
		e.met.HeapEvents.Add(-1)
		if ev.kind == evFlush {
			e.seal(&e.devs[ev.dev])
			if err := e.drain(ctx, ev.dev); err != nil {
				return err
			}
			continue
		}
		act := e.stepVisit(ev.dev)
		if act&actRefill != 0 {
			e.refill(ev.dev)
		}
		if act&actDrain != 0 {
			if err := e.drain(ctx, ev.dev); err != nil {
				return err
			}
		}
	}
	return nil
}

// stepVisit processes one visit event: buffer the record, seal on an
// upload opportunity (or on MaxPending overflow), and schedule the
// device's next event. Allocating follow-ups are returned as action flags,
// not performed — this function and its callees are the per-event hot path
// for a million devices.
//
//lint:zeroalloc per event once device buffers reach steady-state capacity
func (e *Engine) stepVisit(dev int32) uint8 {
	d := &e.devs[dev]
	w := e.window(d)
	v := &w[d.next]

	// FIFO compaction: when the buffer is full but has a consumed prefix,
	// slide the live records down instead of growing.
	if len(d.recs) == cap(d.recs) && d.head > 0 {
		n := copy(d.recs, d.recs[d.head:])
		d.recs = d.recs[:n]
		d.head = 0
	}
	d.recs = append(d.recs, rec{t: v.start, addr: v.addr, net: v.net})
	e.met.Events.Inc()
	e.met.QueueEntries.Add(1)

	var act uint8
	if v.net == uint8(mobility.WiFi) && v.dur >= minUploadDwell {
		// Upload opportunity: seal the loose records and drain the whole
		// queue (older failed batches included), like the Agent.
		e.seal(d)
		if len(d.batches) > 0 {
			act |= actDrain
		}
	} else if e.cfg.MaxPending > 0 && e.loose(d) >= e.cfg.MaxPending {
		e.seal(d)
	}

	d.next++
	if d.next < d.winLen {
		e.heap.push(event{at: w[d.next].start, dev: dev, kind: evVisit})
		e.met.HeapEvents.Add(1)
	} else {
		act |= actRefill
	}
	return act
}

// seal freezes the device's loose records into a sealed batch boundary,
// evicting the oldest sealed batch first when MaxQueuedBatches says so.
func (e *Engine) seal(d *deviceState) {
	loose := e.loose(d)
	if loose == 0 {
		return
	}
	if e.cfg.MaxQueuedBatches > 0 && len(d.batches) >= e.cfg.MaxQueuedBatches {
		drop := d.batches[0]
		d.head += int32(drop.n)
		d.batchedN -= int32(drop.n)
		copy(d.batches, d.batches[1:])
		d.batches = d.batches[:len(d.batches)-1]
		e.met.DroppedBatches.Inc()
		e.met.DroppedEntries.Add(int64(drop.n))
		e.met.QueueEntries.Add(-int64(drop.n))
		e.met.QueueBatches.Add(-1)
	}
	d.seq++
	d.batches = append(d.batches, batchDesc{seq: d.seq, n: uint32(loose)})
	d.batchedN += int32(loose)
	e.met.QueueBatches.Add(1)
}

// refill releases the device's spent window and moves it to its next day
// with visits: that day goes into the day-parity arena and its first visit
// is scheduled. Days with no visits are skipped. Past the last day a device
// that had visits schedules its end-of-trace flush (FlushAtEnd); one that
// never had any schedules nothing. Growth allocations (arena, scratch)
// happen here, off the per-event path, and amortize to zero.
func (e *Engine) refill(dev int32) {
	d := &e.devs[dev]
	visited := d.winLen > 0
	if visited {
		e.arenaLive[d.winDay&1]--
	}
	for ; int(d.day) < e.cfg.Days; d.day++ {
		day := int(d.day)
		e.visitBuf = e.cfg.Fleet.Day(e.cfg.UserBase+int(dev), day, &d.ustate, e.visitBuf[:0], e.scratch)
		if len(e.visitBuf) == 0 {
			continue
		}
		p := day & 1
		if e.arenaLive[p] == 0 {
			// No window points into this arena: its tenant is fully
			// consumed — see the arena invariant on Engine.
			e.arena[p] = e.arena[p][:0]
		}
		e.arenaLive[p]++
		off := len(e.arena[p])
		a := e.arena[p]
		for i := range e.visitBuf {
			v := &e.visitBuf[i]
			a = append(a, visit{start: v.Start, dur: v.Dur, addr: v.Loc.Addr, net: uint8(v.Loc.Net)})
		}
		e.arena[p] = a
		d.winDay, d.winOff, d.winLen, d.next = uint32(day), uint32(off), uint32(len(a)-off), 0
		d.day++
		e.heap.push(event{at: a[off].start, dev: dev, kind: evVisit})
		e.met.HeapEvents.Add(1)
		return
	}
	if visited && e.cfg.FlushAtEnd {
		e.heap.push(event{at: e.endTime, dev: dev, kind: evFlush})
		e.met.HeapEvents.Add(1)
	}
}

// netName maps a rec's net byte to its log-format name without allocating.
func netName(n uint8) string {
	return mobility.NetType(n).String()
}

// buildEntries materializes the next n live records of dev into the shared
// entry buffer (reused across drains; Uploaders must not retain it).
func (e *Engine) buildEntries(dev int32, n int) []nomad.Entry {
	d := &e.devs[dev]
	id := e.ids[dev]
	e.entryBuf = e.entryBuf[:0]
	for _, r := range d.recs[d.head : int(d.head)+n] {
		e.entryBuf = append(e.entryBuf, nomad.Entry{
			DeviceID: id,
			Time:     r.t,
			IPAddr:   r.addr.String(),
			NetType:  netName(r.net),
		})
	}
	return e.entryBuf
}

// drain uploads the device's sealed batches oldest-first, stopping at the
// first batch that exhausts its retries (it stays queued; not an error).
// This is the allocating half of the pipeline — strings and retries live
// here, never in stepVisit.
func (e *Engine) drain(ctx context.Context, dev int32) error {
	if e.up == nil {
		return nil
	}
	d := &e.devs[dev]
	pol := reliable.Policy{
		MaxAttempts: e.cfg.UploadRetries + 1,
		Backoff:     e.cfg.Backoff,
		Rand:        e.cfg.Rand,
		Sleep:       e.cfg.Sleep,
		Metrics:     e.cfg.RetryMetrics,
	}
	upCtx := ctx
	if e.cfg.GracefulUploads {
		upCtx = context.WithoutCancel(ctx)
	}
	for len(d.batches) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		b := d.batches[0]
		id := fmt.Sprintf("%s-b%06d", e.ids[dev], b.seq)
		entries := e.buildEntries(dev, int(b.n))
		attempts, err := pol.Do(upCtx, func(ctx context.Context) error {
			return e.up.Upload(ctx, id, entries)
		})
		e.attempts += int64(attempts)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			e.met.UploadFailures.Inc()
			return nil
		}
		d.head += int32(b.n)
		d.batchedN -= int32(b.n)
		copy(d.batches, d.batches[1:])
		d.batches = d.batches[:len(d.batches)-1]
		e.met.BatchesUploaded.Inc()
		e.met.EntriesUploaded.Add(int64(b.n))
		e.met.QueueEntries.Add(-int64(b.n))
		e.met.QueueBatches.Add(-1)
	}
	return nil
}

// FlushAll seals and drains every device — the end-of-study "plug every
// device in" sweep. It returns how many sealed batches remain queued
// (non-zero only when uploads kept failing); callers loop until zero.
func (e *Engine) FlushAll(ctx context.Context) (remaining int, err error) {
	for i := range e.devs {
		e.seal(&e.devs[i])
		if err := e.drain(ctx, int32(i)); err != nil {
			return e.QueuedBatches(), err
		}
		remaining += len(e.devs[i].batches)
	}
	return remaining, nil
}
