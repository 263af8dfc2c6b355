// Package sim provides a deterministic discrete-event scheduler with a
// virtual clock. It is the execution substrate for the network emulator and
// for every experiment in this repository: all protocol endpoints, links and
// traffic sources run as event handlers on a single Scheduler, so a run is a
// pure function of its configuration and seed.
//
// Determinism rules:
//   - events scheduled for the same instant fire in scheduling order;
//   - handlers must not consult wall-clock time or shared mutable state
//     outside the scheduler;
//   - randomness comes from the per-run *rand.Rand exposed by the scheduler.
//
// The queue holds events by value in an (at, seq) min-heap, so scheduling
// allocates nothing beyond what the caller asks for: Post is handle-less
// (a callback bound once plus a pointer argument), At/After mint one *Timer
// for callers that cancel, and a TimerPool recycles handles for owners that
// follow the reusable-handle contract.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is an instant of virtual time, measured as an offset from the start of
// the run. The zero Time is the beginning of the simulation.
type Time = time.Duration

// event is one queued callback, held by value in the heap. A Post event
// carries fn and arg; an At/After event carries its handle t instead.
type event struct {
	at  Time
	seq uint64 // insertion order, breaks ties deterministically
	fn  func(any)
	arg any
	t   *Timer
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Timer states. A handle has at most one event in the queue: it is queued
// while pending or stopped, and idle once that event has popped.
const (
	timerIdle    uint8 = iota // fired, or stopped and its event discarded
	timerPending              // queued and live
	timerStopped              // queued, cancelled: discarded when it pops
)

// Timer is a handle to a scheduled event that can be cancelled or queried.
type Timer struct {
	fn    func()
	at    Time
	state uint8
	pool  *TimerPool // non-nil for handles a TimerPool recycles
}

// Stop cancels the timer. It reports whether the timer was still pending
// (i.e. the call prevented the event from firing). Stopping an already-fired
// or already-stopped timer is a harmless no-op returning false.
func (t *Timer) Stop() bool {
	if t == nil || t.state != timerPending {
		return false
	}
	t.state = timerStopped
	return true
}

// Pending reports whether the timer has neither fired nor been stopped.
func (t *Timer) Pending() bool {
	return t != nil && t.state == timerPending
}

// When returns the virtual time the timer is (or was) set to fire at.
func (t *Timer) When() Time {
	if t == nil {
		return 0
	}
	return t.at
}

// Scheduler is a discrete-event executor with a virtual clock.
// The zero value is not usable; call New.
type Scheduler struct {
	now    Time
	seq    uint64
	queue  []event // min-heap ordered by (at, seq)
	rng    *rand.Rand
	fired  uint64
	halted bool
}

// New returns a Scheduler whose random source is seeded with seed.
func New(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Rand returns the per-run deterministic random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Fired returns the number of events executed so far (useful in tests and as
// a progress/complexity metric).
func (s *Scheduler) Fired() uint64 { return s.fired }

// Len returns the number of pending events, including cancelled ones that
// have not yet been reaped.
func (s *Scheduler) Len() int { return len(s.queue) }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a protocol bug, and silently clamping would
// mask it.
func (s *Scheduler) At(t Time, fn func()) *Timer {
	tm := &Timer{fn: fn}
	s.arm(tm, t)
	return tm
}

// After schedules fn to run d after the current virtual time. Negative d is
// treated as zero.
func (s *Scheduler) After(d time.Duration, fn func()) *Timer {
	return s.At(s.now+max(d, 0), fn)
}

// Post schedules fn(arg) at absolute virtual time t with no handle: the
// event cannot be cancelled. It is the fire-and-forget path for hot
// callers — bind fn once (a method value cached in a field) and pass a
// pointer as arg, and scheduling allocates nothing. Post events order with
// At/After events by (time, scheduling order) like any other.
func (s *Scheduler) Post(t Time, fn func(any), arg any) {
	s.push(event{at: t, fn: fn, arg: arg})
}

// arm queues the idle handle tm to fire at t.
func (s *Scheduler) arm(tm *Timer, t Time) {
	tm.at, tm.state = t, timerPending
	s.push(event{at: t, t: tm})
}

// push stamps ev with the next sequence number and sifts it into the heap.
func (s *Scheduler) push(ev event) {
	if ev.at < s.now {
		panic(fmt.Sprintf("sim: scheduling into the past: at %v, now %v", ev.at, s.now))
	}
	ev.seq = s.seq
	s.seq++
	q := append(s.queue, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	s.queue = q
}

// pop removes and returns the earliest event.
func (s *Scheduler) pop() event {
	q := s.queue
	ev := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // drop references for the collector
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	s.queue = q
	return ev
}

// retire marks a popped handle idle and returns a pooled one to its pool.
func retire(t *Timer) {
	t.state = timerIdle
	t.fn = nil
	if t.pool != nil {
		t.pool.free = append(t.pool.free, t)
	}
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed (false when the queue is empty or
// the scheduler is halted).
func (s *Scheduler) Step() bool {
	if s.halted {
		return false
	}
	for len(s.queue) > 0 {
		ev := s.pop()
		if t := ev.t; t != nil {
			dead := t.state == timerStopped
			fn := t.fn
			// The handle is spent once its callback begins, so it is
			// recycled before fn runs (fn may re-arm it via its pool).
			retire(t)
			if dead {
				continue
			}
			s.now = ev.at
			s.fired++
			fn()
			return true
		}
		s.now = ev.at
		s.fired++
		ev.fn(ev.arg)
		return true
	}
	return false
}

// Run executes events until the queue is empty or Halt is called.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with time ≤ deadline, then advances the clock to
// the deadline (even if the queue still holds later events).
func (s *Scheduler) RunUntil(deadline Time) {
	for !s.halted {
		next, ok := s.peek()
		if !ok || next > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Halt stops Run/RunUntil after the current event returns. Pending events are
// kept; Resume re-enables stepping.
func (s *Scheduler) Halt() { s.halted = true }

// Resume clears a previous Halt.
func (s *Scheduler) Resume() { s.halted = false }

// Halted reports whether the scheduler is halted.
func (s *Scheduler) Halted() bool { return s.halted }

// peek returns the time of the next live event, discarding cancelled ones.
func (s *Scheduler) peek() (Time, bool) {
	for len(s.queue) > 0 {
		if t := s.queue[0].t; t != nil && t.state == timerStopped {
			retire(s.pop().t)
			continue
		}
		return s.queue[0].at, true
	}
	return 0, false
}

// TimerPool recycles timer handles for one owner that follows the
// reusable-handle contract (core.Timer): a handle is spent once Stop is
// called on it or its callback begins, and the owner drops every reference
// to a spent handle. A fired handle returns to the pool as its callback
// begins; a stopped one only when its queued event pops and is discarded,
// so a recycled handle can never be fired by a stale event. Steady-state
// re-arming through a pool allocates nothing.
type TimerPool struct {
	s    *Scheduler
	free []*Timer
}

// NewTimerPool returns an empty pool of handles on s.
func NewTimerPool(s *Scheduler) *TimerPool { return &TimerPool{s: s} }

// After is Scheduler.After with a recycled handle.
func (p *TimerPool) After(d time.Duration, fn func()) *Timer {
	var t *Timer
	if n := len(p.free); n > 0 {
		t = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		t = &Timer{pool: p}
	}
	t.fn = fn
	p.s.arm(t, p.s.now+max(d, 0))
	return t
}
