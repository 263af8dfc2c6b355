package sim

import "time"

// Ticker repeatedly invokes a function at a fixed virtual-time period until
// stopped. It is the building block for rate-based traffic sources and for
// the transport's periodic measurement machinery.
type Ticker struct {
	s      *Scheduler
	period time.Duration
	fn     func()
	fire   func() // t.tick, bound once
	timer  *Timer
	stop   bool
	ticks  uint64
}

// NewTicker schedules fn every period, with the first tick one period from
// now. It panics on a non-positive period.
func NewTicker(s *Scheduler, period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{s: s, period: period, fn: fn}
	t.fire = t.tick
	t.arm()
	return t
}

// arm queues the next tick. The ticker's own handle is re-armed once its
// event has popped, so a running ticker allocates nothing per tick; only a
// Reset, which leaves the stopped event queued, takes a fresh handle.
func (t *Ticker) arm() {
	if t.timer == nil || t.timer.state != timerIdle {
		t.timer = &Timer{}
	}
	t.timer.fn = t.fire
	t.s.arm(t.timer, t.s.now+t.period)
}

func (t *Ticker) tick() {
	if t.stop {
		return
	}
	t.ticks++
	t.fn()
	if !t.stop {
		t.arm()
	}
}

// Stop permanently disables the ticker.
func (t *Ticker) Stop() {
	t.stop = true
	if t.timer != nil {
		t.timer.Stop()
	}
}

// Ticks returns the number of times the callback has run.
func (t *Ticker) Ticks() uint64 { return t.ticks }

// Reset changes the period and re-arms the next tick to fire one new period
// from now, like time.Ticker.Reset. A ticker that was stopped stays stopped.
func (t *Ticker) Reset(period time.Duration) {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t.period = period
	if t.stop {
		return
	}
	if t.timer != nil {
		t.timer.Stop()
	}
	t.arm()
}
