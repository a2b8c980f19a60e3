package engine

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"locind/internal/mobility"
	"locind/internal/nomad"
	"locind/internal/obs"
)

// flakyUploads wraps srv so that every batch fails a fixed number of times —
// 0 to 4, picked by a hash of its ID — before it is let through; one batch in
// seven has its first failure land after the server committed it. The rule
// is per batch, so it plays out the same whatever order devices upload in.
// With three attempts per opportunity, some batches outlive an opportunity
// and drain behind newer ones at the next: the store-and-forward path.
func flakyUploads(srv *nomad.Server) http.Handler {
	var mu sync.Mutex
	seen := map[string]uint32{}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Nomad-Batch-Id")
		if r.URL.Path != "/upload" || id == "" {
			srv.ServeHTTP(w, r)
			return
		}
		h := fnv.New32a()
		h.Write([]byte(id))
		mu.Lock()
		n := seen[id]
		seen[id]++
		mu.Unlock()
		switch {
		case n >= h.Sum32()%5:
			srv.ServeHTTP(w, r)
		case n == 0 && h.Sum32()%7 == 0:
			srv.ServeHTTP(httptest.NewRecorder(), r) // committed, answer lost
			http.Error(w, "lost", http.StatusBadGateway)
		default:
			http.Error(w, "transient", http.StatusServiceUnavailable)
		}
	})
}

// TestEngineEquivalentToAgents is the golden cross-check behind the engine:
// at small scale, replaying the same pre-generated trace through (a) the
// reference goroutine-per-device Agent (agent_test.go) and (b) the
// event-heap engine, day by day, must land identical record streams, batch
// identities, and server aggregates, in the same number of upload attempts
// — on a clean network and with uploads failing. Both sides run over real
// HTTP against the one Server there is, and are compared through its
// Aggregates: the fleet digest folds every record of every device in order.
func TestEngineEquivalentToAgents(t *testing.T) {
	clean := func(srv *nomad.Server) http.Handler { return srv }
	t.Run("clean-network", func(t *testing.T) { checkEquivalentToAgents(t, clean, 0) })
	t.Run("flaky-uploads", func(t *testing.T) { checkEquivalentToAgents(t, flakyUploads, 1) })
}

func checkEquivalentToAgents(t *testing.T, network func(*nomad.Server) http.Handler, minDups uint64) {
	g, pt, dcfg := engineFixture(t, 5)
	dcfg.Users = 40
	dt, err := mobility.GenerateDeviceTrace(g, pt, dcfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Reference path: one Agent per device, sequential (order doesn't
	// matter — devices are independent and the server dedups per device).
	// The study ends with every device plugged in until its queue is empty.
	legacy := nomad.NewStreamingServer()
	agentSide := http.NewServeMux()
	agentSide.HandleFunc("/ip", ipEcho)
	agentSide.Handle("/", network(legacy))
	tsA := httptest.NewServer(agentSide)
	defer tsA.Close()
	agentAttempts, agentFailures := 0, 0
	devs := make([]string, len(dt.Users))
	for i := range dt.Users {
		u := &dt.Users[i]
		agent := NewAgent(nomad.NewClient(tsA.URL), fmt.Sprintf("device-%d", u.ID))
		agent.Sleep = instantSleep
		devs[i] = agent.DeviceID()
		if _, err := agent.Replay(ctx, u); err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := agent.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if agent.Pending() == 0 {
				break
			}
		}
		agentAttempts += agent.UploadAttempts
		agentFailures += agent.UploadFailures
	}

	// Engine path: the same trace through the event heap, one day at a
	// time. MaxPending 0 keeps sealing opportunity-driven, so batch
	// boundaries — and with them every "<dev>-b%06d" identity — match the
	// Agent's exactly.
	engSrv := nomad.NewStreamingServer()
	tsB := httptest.NewServer(network(engSrv))
	defer tsB.Close()
	met := NewMetrics(obs.NewRegistry())
	eng, err := New(Config{
		Fleet:      dt,
		Devices:    len(dt.Users),
		Days:       dt.Days,
		Uploader:   nomad.NewClient(tsB.URL),
		Sleep:      instantSleep,
		FlushAtEnd: true,
		Metrics:    met,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(ctx); err != nil {
		t.Fatal(err)
	}
	// A batch fails at most four times and an opportunity is three
	// attempts, so two flush rounds empty every queue; the bound turns an
	// engine that keeps resealing into a failure instead of a runaway.
	for round := 0; eng.QueuedBatches() > 0; round++ {
		if minDups == 0 || round == 4 {
			t.Fatalf("engine left %d batches queued after %d flush rounds", eng.QueuedBatches(), round)
		}
		if _, err := eng.FlushAll(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// The same work: every upload attempt and every given-up opportunity.
	if got := eng.UploadAttempts(); got != int64(agentAttempts) {
		t.Fatalf("engine made %d upload attempts, agents %d", got, agentAttempts)
	}
	if got := met.UploadFailures.Value(); got != int64(agentFailures) || (minDups > 0 && got == 0) {
		t.Fatalf("engine gave up on %d opportunities, agents on %d", got, agentFailures)
	}

	// The same store: identical fleet snapshots — device and record
	// counts, applied and duplicate batches, and the digest over every
	// device's record stream — and every visit of the trace stored once.
	sa, sb := legacy.Agg.Snapshot(), engSrv.Agg.Snapshot()
	t.Logf("%d upload attempts, %d opportunities given up, %d duplicate batches",
		agentAttempts, agentFailures, sb.DupBatches)
	if sa != sb {
		t.Fatalf("aggregate snapshots diverged:\nagents: %+v\nengine: %+v", sa, sb)
	}
	if sa.Devices != len(dt.Users) || sa.DupBatches < minDups || (minDups == 0 && sa.DupBatches != 0) {
		t.Fatalf("snapshot %+v: want %d devices and at least %d duplicate batches", sa, len(dt.Users), minDups)
	}
	// Per device: every field of the aggregate, batch accounting included
	// (same sealing points ⇒ same batch count and last seq).
	for i, dev := range devs {
		da, okA := legacy.Agg.Device(dev)
		db, okB := engSrv.Agg.Device(dev)
		if !okA || !okB || da != db {
			t.Fatalf("%s aggregates diverged:\nagents: %+v\nengine: %+v", dev, da, db)
		}
		if visits := len(dt.Users[i].Visits); da.Records != uint64(visits) {
			t.Fatalf("%s: %d records stored for %d visits", dev, da.Records, visits)
		}
	}
}
