// Package lockdirty is the dirty arm of the lockflow fixtures: every way a
// held mutex meets a blocking operation — a watched call (the gns exchanges
// included), a channel send or receive, a default-less select, and a
// same-package helper that blocks a call or two down.
package lockdirty

import (
	"sync"
	"time"

	"locind/internal/gns"
)

// Reg guards a channel.
type Reg struct {
	mu    sync.Mutex
	ready chan int
}

// Wait sleeps with the lock held.
func (r *Reg) Wait() {
	r.mu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep called while holding r.mu`
	r.mu.Unlock()
}

// Resolver holds its lock across both gns round trips: the one-shot free
// function and the pooled Transport method.
type Resolver struct {
	mu sync.Mutex
	tr gns.Transport
}

func (r *Resolver) Resolve(addr string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := gns.Exchange(addr); err != nil { // want `gns.Exchange \(a network round trip with retries\) called while holding r.mu`
		return err
	}
	return r.tr.Exchange(addr) // want `gns.Transport.Exchange \(a network round trip with retries, on a pooled socket\) called while holding r.mu`
}

// Refresh is the cluster.Client convoy's shape: the round trip sits in a
// helper, two calls below the critical section.
func (r *Resolver) Refresh(addr string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fetch(addr) // want `fetch transitively blocks \(network/sleep/channel\) and is called while holding r.mu`
}

func (r *Resolver) fetch(addr string) error { return r.leg(addr) }

func (r *Resolver) leg(addr string) error { return r.tr.Exchange(addr) }

// Push sends on a channel under a deferred unlock.
func (r *Reg) Push(v int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ready <- v // want `channel send while holding r.mu`
}

// Pop receives under the lock: an empty channel parks every caller.
func (r *Reg) Pop() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return <-r.ready // want `channel receive while holding r.mu`
}

// PopOrQuit waits on two channels under the lock; with no default case the
// select parks just as a bare receive does.
func (r *Reg) PopOrQuit(quit <-chan struct{}) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	select { // want `blocking select while holding r.mu`
	case v := <-r.ready:
		return v
	case <-quit:
		return 0
	}
}

// Offer's select has a default, so its send and receive never park; but Go
// evaluates each case's operands before the select decides, and those call
// a helper that sleeps.
func (r *Reg) Offer() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case r.ready <- r.next(): // want `next transitively blocks \(network/sleep/channel\) and is called while holding r.mu`
	case v := <-r.source(): // want `source transitively blocks \(network/sleep/channel\) and is called while holding r.mu`
		return v
	default:
	}
	return 0
}

func (r *Reg) next() int {
	time.Sleep(time.Millisecond)
	return 1
}

func (r *Reg) source() chan int {
	time.Sleep(time.Millisecond)
	return r.ready
}
