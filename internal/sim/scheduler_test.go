package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(30*time.Millisecond, func() { got = append(got, 3) })
	s.At(10*time.Millisecond, func() { got = append(got, 1) })
	s.At(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("execution order = %v, want %v", got, want)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("final time = %v, want 30ms", s.Now())
	}
}

func TestSchedulerTieBreakIsInsertionOrder(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break order = %v, want ascending insertion order", got)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	s.At(time.Millisecond, func() {})
}

func TestAfterNegativeClampsToNow(t *testing.T) {
	s := New(1)
	fired := false
	s.After(-time.Second, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("negative After never fired")
	}
	if s.Now() != 0 {
		t.Fatalf("clock moved to %v for clamped event", s.Now())
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.After(time.Second, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending before Run")
	}
	if !tm.Stop() {
		t.Fatal("Stop on pending timer should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	s.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if tm.Pending() {
		t.Fatal("stopped timer still pending")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := New(1)
	tm := s.After(time.Millisecond, func() {})
	s.Run()
	if tm.Pending() {
		t.Fatal("fired timer reports pending")
	}
	if tm.Stop() {
		t.Fatal("Stop after fire should report false")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 5 * time.Second} {
		d := d
		s.At(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(3 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("clock = %v, want 3s", s.Now())
	}
	s.RunUntil(10 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events after second RunUntil, want 3", len(fired))
	}
}

func TestHaltAndResume(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 5; i++ {
		s.At(time.Duration(i)*time.Second, func() {
			count++
			if count == 2 {
				s.Halt()
			}
		})
	}
	s.Run()
	if count != 2 {
		t.Fatalf("count = %d after Halt, want 2", count)
	}
	if !s.Halted() {
		t.Fatal("scheduler should report halted")
	}
	s.Resume()
	s.Run()
	if count != 5 {
		t.Fatalf("count = %d after Resume+Run, want 5", count)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			s.After(time.Millisecond, rec)
		}
	}
	s.After(time.Millisecond, rec)
	s.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if s.Now() != 100*time.Millisecond {
		t.Fatalf("clock = %v, want 100ms", s.Now())
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced diverging random streams")
		}
	}
}

// Property: for any batch of events with arbitrary times, execution order is
// the stable sort of (time, insertion index), and the clock is monotone.
func TestQuickEventOrderIsStableSort(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(7)
		type rec struct {
			at  time.Duration
			idx int
		}
		var want []rec
		var got []rec
		for i, d := range delays {
			at := time.Duration(d) * time.Microsecond
			want = append(want, rec{at, i})
			i := i
			s.At(at, func() {
				if s.Now() != at {
					t.Errorf("clock %v != event time %v", s.Now(), at)
				}
				got = append(got, rec{at, i})
			})
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		s.Run()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset of timers fires exactly the complement.
func TestQuickStopFiresComplement(t *testing.T) {
	f := func(n uint8, mask uint64) bool {
		count := int(n%64) + 1
		s := New(3)
		fired := make([]bool, count)
		timers := make([]*Timer, count)
		for i := 0; i < count; i++ {
			i := i
			timers[i] = s.At(time.Duration(i)*time.Millisecond, func() { fired[i] = true })
		}
		for i := 0; i < count; i++ {
			if mask&(1<<uint(i)) != 0 {
				timers[i].Stop()
			}
		}
		s.Run()
		for i := 0; i < count; i++ {
			stopped := mask&(1<<uint(i)) != 0
			if fired[i] == stopped {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTickerBasic(t *testing.T) {
	s := New(1)
	n := 0
	tk := NewTicker(s, 10*time.Millisecond, func() { n++ })
	s.RunUntil(95 * time.Millisecond)
	if n != 9 {
		t.Fatalf("ticks = %d, want 9", n)
	}
	tk.Stop()
	s.RunUntil(time.Second)
	if n != 9 {
		t.Fatalf("ticker fired after Stop: %d", n)
	}
	if tk.Ticks() != 9 {
		t.Fatalf("Ticks() = %d, want 9", tk.Ticks())
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	s := New(1)
	n := 0
	var tk *Ticker
	tk = NewTicker(s, time.Millisecond, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	s.Run()
	if n != 3 {
		t.Fatalf("ticks = %d, want 3", n)
	}
}

func TestTickerReset(t *testing.T) {
	s := New(1)
	var at []time.Duration
	tk := NewTicker(s, 10*time.Millisecond, func() { at = append(at, s.Now()) })
	s.RunUntil(10 * time.Millisecond)
	tk.Reset(20 * time.Millisecond)
	s.RunUntil(50 * time.Millisecond)
	tk.Stop()
	want := []time.Duration{10 * time.Millisecond, 30 * time.Millisecond, 50 * time.Millisecond}
	if len(at) != len(want) {
		t.Fatalf("tick times = %v, want %v", at, want)
	}
	for i := range at {
		if at[i] != want[i] {
			t.Fatalf("tick times = %v, want %v", at, want)
		}
	}
}

func TestTickerPanicsOnBadPeriod(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero period did not panic")
		}
	}()
	NewTicker(s, 0, func() {})
}

func TestStopNilTimer(t *testing.T) {
	var tm *Timer
	if tm.Stop() {
		t.Fatal("nil timer Stop returned true")
	}
	if tm.Pending() {
		t.Fatal("nil timer Pending returned true")
	}
}

// BenchmarkSchedulerChurn keeps about a thousand events queued at random
// delays. The after leg mints a cancellable handle per event; the post leg
// is the handle-less fire-and-forget path and allocates nothing.
func BenchmarkSchedulerChurn(b *testing.B) {
	nop, nopArg := func() {}, func(any) {}
	legs := []struct {
		name     string
		schedule func(s *Scheduler, d time.Duration)
	}{
		{"after", func(s *Scheduler, d time.Duration) { s.After(d, nop) }},
		{"post", func(s *Scheduler, d time.Duration) { s.Post(s.Now()+d, nopArg, nil) }},
	}
	for _, leg := range legs {
		b.Run(leg.name, func(b *testing.B) {
			s := New(1)
			rng := rand.New(rand.NewSource(2))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				leg.schedule(s, time.Duration(rng.Intn(1000))*time.Microsecond)
				if s.Len() > 1024 {
					for j := 0; j < 512; j++ {
						s.Step()
					}
				}
			}
			s.Run()
		})
	}
}

// Post events interleave with At/After events in (time, scheduling order).
func TestPostOrdersWithTimers(t *testing.T) {
	s := New(1)
	var got []string
	rec := func(a any) { got = append(got, *a.(*string)) }
	p1, p2 := "post1", "post2"
	s.At(time.Second, func() { got = append(got, "at1") })
	s.Post(time.Second, rec, &p1)
	s.Post(500*time.Millisecond, rec, &p2)
	s.At(time.Second, func() { got = append(got, "at2") })
	s.Run()
	want := []string{"post2", "at1", "post1", "at2"}
	if len(got) != len(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Fired() != 4 {
		t.Fatalf("Fired = %d, want 4", s.Fired())
	}
}

func TestPostInPastPanics(t *testing.T) {
	s := New(1)
	s.RunUntil(time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("posting into the past did not panic")
		}
	}()
	s.Post(time.Millisecond, func(any) {}, nil)
}

// A pooled handle comes back once its callback begins, and a stopped one
// only after its stale event has been popped: a recycled handle is never
// fired by an event queued for its previous use.
func TestTimerPoolRecycling(t *testing.T) {
	s := New(1)
	p := NewTimerPool(s)
	fired := 0
	a := p.After(time.Second, func() { fired++ })
	if !a.Stop() {
		t.Fatal("Stop on a pending pooled timer reported false")
	}
	b := p.After(2*time.Second, func() { fired += 10 })
	if b == a {
		t.Fatal("a stopped handle was reused while its event was still queued")
	}
	s.RunUntil(1500 * time.Millisecond) // a's stale event pops and is discarded
	if fired != 0 {
		t.Fatalf("stopped timer fired (%d)", fired)
	}
	c := p.After(time.Second, func() { fired += 100 })
	if c != a {
		t.Fatal("the reaped handle was not recycled")
	}
	s.Run()
	if fired != 110 {
		t.Fatalf("fired = %d, want b and c once each (110)", fired)
	}
	if c.Pending() || c.Stop() {
		t.Fatal("a fired pooled handle still reports pending")
	}
}

// A callback that re-arms through its pool gets its own handle back, so a
// periodic re-arm allocates nothing; so do Post and a running Ticker.
func TestSteadyStateSchedulingZeroAlloc(t *testing.T) {
	s := New(1)
	p := NewTimerPool(s)
	var rearm func()
	rearm = func() { p.After(time.Millisecond, rearm) }
	p.After(time.Millisecond, rearm)
	post := func(any) {}
	NewTicker(s, time.Millisecond, func() {})
	step := func() {
		s.Post(s.Now()+time.Millisecond, post, s)
		s.RunUntil(s.Now() + time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("steady-state scheduling allocates %.1f objects per step, want 0", n)
	}
}
