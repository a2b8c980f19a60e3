// Package lockfix is the clean arm of the lockflow fixtures: short
// critical sections, blocking work done after release, a select that cannot
// park, and a helper that does no blocking work.
package lockfix

import (
	"sync"
	"time"
)

// Reg guards a map with a narrowly scoped mutex.
type Reg struct {
	mu    sync.Mutex
	vals  map[string]int
	ready chan int
}

// Get holds the lock only around the map read.
func (r *Reg) Get(k string) int {
	r.mu.Lock()
	v := r.vals[k]
	r.mu.Unlock()
	time.Sleep(time.Millisecond) // after release: not a finding
	return v
}

// Set uses defer but performs no blocking work under the lock.
func (r *Reg) Set(k string, v int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store(k, v)
}

// store is called under the lock and blocks on nothing.
func (r *Reg) store(k string, v int) {
	if r.vals == nil {
		r.vals = make(map[string]int)
	}
	r.vals[k] = v
}

// TryPop polls the channel under the lock: the default case means the
// select never parks.
func (r *Reg) TryPop() (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case v := <-r.ready:
		return v, true
	default:
		return 0, false
	}
}

// Drain polls through a helper under the lock: a select with a default case
// does not make its function a blocking one.
func (r *Reg) Drain() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for r.poll() {
		n++
	}
	return n
}

func (r *Reg) poll() bool {
	select {
	case <-r.ready:
		return true
	default:
		return false
	}
}
