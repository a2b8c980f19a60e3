// Package lockdirty is the dirty arm of the lockflow fixtures: blocking
// operations under a held mutex (the gns exchanges included), a
// self-deadlock, and an AB/BA acquisition-order inversion.
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

// Push sends on a channel under a deferred unlock.
func (r *Reg) Push(v int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ready <- v // want `channel send while holding r.mu`
}

// Again locks a mutex it already holds.
func (r *Reg) Again() {
	r.mu.Lock()
	r.mu.Lock() // want `r.mu locked again while already held`
	r.mu.Unlock()
	r.mu.Unlock()
}

// Pair is locked a-then-b in AB but b-then-a in BA.
type Pair struct {
	a, b sync.Mutex
}

func (p *Pair) AB() {
	p.a.Lock()
	p.b.Lock() // want `lock order inversion: Pair.b is acquired while Pair.a is held`
	p.b.Unlock()
	p.a.Unlock()
}

func (p *Pair) BA() {
	p.b.Lock()
	p.a.Lock()
	p.a.Unlock()
	p.b.Unlock()
}
