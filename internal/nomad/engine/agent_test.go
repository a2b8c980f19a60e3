package engine

// The goroutine-per-device Agent the engine replaced, kept as the reference
// TestEngineEquivalentToAgents replays against: it left internal/nomad
// verbatim but for package qualifiers and its fleet-shared AgentMetrics
// handle (three counters no comparison reads), with the /ip request
// nomad.Client.PublicIP made for it (publicIP below) and the echo that
// answers it (ipEcho). Nothing outside this package's tests may use it.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"locind/internal/mobility"
	"locind/internal/nomad"
	"locind/internal/obs"
	"locind/internal/reliable"
)

// batch is a sealed group of log entries with a stable upload identity.
// Sealing is what makes store-and-forward exactly-once: the entries and ID
// are frozen at the first upload attempt, so a retry (or a later
// opportunity) replays the identical batch and the server can dedup it —
// a failed /upload can neither lose nor duplicate records.
type batch struct {
	id      string
	entries []nomad.Entry
}

// Agent replays one device's mobility trace through the measurement
// pipeline: on every connectivity event it asks the server for its
// public-facing address and buffers a log record locally; records are
// uploaded in a batch only when the device is "connected to power and WiFi"
// (§4's battery/data conservation rule), which we approximate as any WiFi
// dwell of at least MinUploadDwell hours.
type Agent struct {
	Client *nomad.Client
	// MinUploadDwell is the minimum WiFi dwell (hours) treated as
	// "plugged in at home/work" and therefore safe to upload during.
	MinUploadDwell float64
	// UploadRetries is how many extra attempts a failed batch upload gets
	// before the agent gives up for this opportunity and keeps the batch
	// queued for the next long dwell — store-and-forward, like the app.
	UploadRetries int
	// Backoff schedules pauses between upload retries.
	Backoff reliable.Backoff
	// Rand supplies backoff jitter; nil disables jitter. Chaos tests seed
	// this for reproducible retry schedules.
	Rand *rand.Rand
	// Sleep overrides the inter-attempt wait (virtual clock hook).
	Sleep func(ctx context.Context, d time.Duration) error
	// Metrics, when non-nil, counts the retry loop's activity into obs
	// handles shared across the fleet.
	Metrics *reliable.Metrics
	// Tracer, when non-nil, records one span per batch-upload opportunity
	// (with per-attempt children) and propagates its TraceContext in the
	// upload headers so the server's store span parents onto it.
	Tracer *obs.Tracer

	deviceID string
	pending  []nomad.Entry // records not yet sealed into a batch
	queue    []batch       // sealed batches awaiting upload, oldest first
	seq      int
	// UploadFailures counts upload opportunities that exhausted retries.
	UploadFailures int
	// UploadAttempts counts every /upload request made — the quantity
	// chaos tests compare across same-seed runs.
	UploadAttempts int
}

// NewAgent creates an agent for the raw device identifier (hashed before it
// ever leaves the device).
func NewAgent(client *nomad.Client, rawDeviceID string) *Agent {
	return &Agent{
		Client:         client,
		MinUploadDwell: 2.0,
		UploadRetries:  2,
		Backoff:        reliable.Backoff{Base: 100 * time.Millisecond, Max: 2 * time.Second},
		deviceID:       nomad.HashDeviceID(rawDeviceID),
	}
}

// DeviceID returns the hashed identifier the agent reports.
func (a *Agent) DeviceID() string { return a.deviceID }

// Pending returns the number of buffered, not-yet-stored records (loose
// records plus entries in sealed batches still awaiting upload).
func (a *Agent) Pending() int {
	n := len(a.pending)
	for _, b := range a.queue {
		n += len(b.entries)
	}
	return n
}

func (a *Agent) policy(span *obs.Span) reliable.Policy {
	return reliable.Policy{
		MaxAttempts: a.UploadRetries + 1,
		Backoff:     a.Backoff,
		Rand:        a.Rand,
		Sleep:       a.Sleep,
		Metrics:     a.Metrics,
		TraceSpan:   span,
	}
}

// seal freezes the loose pending records into a batch with a fresh stable
// ID and queues it behind any batches still awaiting upload.
func (a *Agent) seal() {
	if len(a.pending) == 0 {
		return
	}
	a.seq++
	a.queue = append(a.queue, batch{
		id:      fmt.Sprintf("%s-b%06d", a.deviceID, a.seq),
		entries: a.pending,
	})
	a.pending = nil
}

// drainQueue uploads sealed batches oldest-first, stopping at the first
// batch that exhausts its retries (the rest wait for the next
// opportunity). It returns the number of records successfully stored.
func (a *Agent) drainQueue(ctx context.Context) (int, error) {
	uploaded := 0
	for len(a.queue) > 0 {
		b := a.queue[0]
		span := a.Tracer.Start("nomad-upload", "batch", b.id)
		upCtx := obs.ContextWith(ctx, span)
		attempts, err := a.policy(span).Do(upCtx, func(ctx context.Context) error {
			return a.Client.Upload(ctx, b.id, b.entries)
		})
		span.End()
		a.UploadAttempts += attempts
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return uploaded, ctxErr
			}
			a.UploadFailures++
			return uploaded, nil // keep the batch queued; not fatal
		}
		uploaded += len(b.entries)
		a.queue = a.queue[1:]
	}
	return uploaded, nil
}

// ipEcho is the endpoint publicIP asks: it answers with the address the
// request states in its simulated-address header, the visit's own address.
// The Server has no such endpoint (the engine logs that address itself), so
// TestEngineEquivalentToAgents mounts this one beside it for the Agent.
func ipEcho(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprint(w, r.Header.Get("X-Nomad-Simulated-Addr"))
}

// publicIP asks the server what public address this device appears from.
// simulatedAddr is the workload-assigned address the agent is pretending to
// hold. ctx bounds the request.
func publicIP(ctx context.Context, c *nomad.Client, simulatedAddr string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/ip", nil)
	if err != nil {
		return "", err
	}
	req.Header.Set("X-Nomad-Simulated-Addr", simulatedAddr)
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("nomad: /ip returned %s", resp.Status)
	}
	// An address is a few dozen bytes; never buffer more of a reply than that.
	body, err := io.ReadAll(io.LimitReader(resp.Body, 256))
	if err != nil {
		return "", err
	}
	return string(body), nil
}

// Replay runs the whole trace through the pipeline. It returns the number
// of records uploaded. Records still buffered at the end of the trace stay
// queued (exactly like a device that was never plugged in); Flush drains
// them explicitly.
func (a *Agent) Replay(ctx context.Context, u *mobility.UserTrace) (int, error) {
	uploaded := 0
	for _, v := range u.Visits {
		if err := ctx.Err(); err != nil {
			return uploaded, err
		}
		// Connectivity event: learn the public address, buffer the record.
		// The echo request rides the same retry policy as uploads — a tiny
		// request on a flaky link.
		var ip string
		_, err := a.policy(nil).Do(ctx, func(ctx context.Context) error {
			got, err := publicIP(ctx, a.Client, v.Loc.Addr.String())
			if err == nil {
				ip = got
			}
			return err
		})
		if err != nil {
			return uploaded, fmt.Errorf("nomad: device %s ip-echo: %w", a.deviceID, err)
		}
		a.pending = append(a.pending, nomad.Entry{
			DeviceID: a.deviceID,
			Time:     v.Start,
			IPAddr:   ip,
			NetType:  v.Loc.Net.String(),
		})
		// Long WiFi dwell: treat as powered, seal and flush the buffer. A
		// transient upload failure is not fatal — sealed batches stay
		// queued and the next opportunity resumes, exactly like the app's
		// "previously untransferred log files" behaviour.
		if v.Loc.Net == mobility.WiFi && v.Dur >= a.MinUploadDwell {
			a.seal()
			n, err := a.drainQueue(ctx)
			uploaded += n
			if err != nil {
				return uploaded, err
			}
		}
	}
	return uploaded, nil
}

// Flush seals any loose records and drains the whole upload queue — the
// device plugged in at end of study. It returns the records stored.
func (a *Agent) Flush(ctx context.Context) (int, error) {
	a.seal()
	return a.drainQueue(ctx)
}
