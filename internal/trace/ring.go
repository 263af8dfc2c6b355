package trace

import "sync"

// Ring is a fixed-size ring buffer of events: the always-on flight
// recorder. Events are stored by value in a slot array allocated once by
// NewRing, so tracing into a warm ring allocates nothing. A small mutex
// orders writers and snapshots; the critical section is one Event copy, so
// concurrent connections may still share one ring. Old events are
// overwritten once the buffer wraps.
type Ring struct {
	mu    sync.Mutex
	slots []Event
	pos   uint64 // total events ever traced
}

// NewRing returns a ring holding the most recent n events (minimum 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{slots: make([]Event, n)}
}

// Trace implements Tracer.
func (r *Ring) Trace(ev Event) {
	r.mu.Lock()
	r.slots[r.pos%uint64(len(r.slots))] = ev
	r.pos++
	r.mu.Unlock()
}

// Cap returns the ring's capacity.
func (r *Ring) Cap() int { return len(r.slots) }

// Total returns the number of events ever traced, including overwritten
// ones.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pos
}

// Dropped returns how many events have been overwritten.
func (r *Ring) Dropped() uint64 {
	if total := r.Total(); total > uint64(len(r.slots)) {
		return total - uint64(len(r.slots))
	}
	return 0
}

// Events snapshots the buffered events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.slots))
	start := uint64(0)
	if r.pos > n {
		start = r.pos - n
	}
	out := make([]Event, 0, r.pos-start)
	for i := start; i < r.pos; i++ {
		out = append(out, r.slots[i%n])
	}
	return out
}
