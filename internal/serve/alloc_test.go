package serve

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/race"
	"github.com/cercs/iqrudp/internal/udpwire"
)

// TestSteadyStateAllocBudget pins the serve datapath's allocation budget
// end to end: a dialed client streams 64 B marked messages into an
// in-process engine (default options, so the flight ring and histograms are
// armed) and the whole process — client send path, both sockets' batchers,
// demux, both machines, acks, timers, delivery — may allocate at most 3
// heap objects per delivered message: the caller's payload, the delivered
// Message.Data, and slack for amortised pool refills after a GC.
func TestSteadyStateAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items under -race")
	}
	const (
		warm   = 2000
		n      = 20000
		budget = 3.0
	)
	srv := startServer(t, Options{Shards: 1, DrainTimeout: time.Second})
	// Keep the client's flight inside its sendPkt freelist (256 entries), so
	// the budget measures the serve datapath rather than that bound.
	ccfg := testConfig()
	ccfg.MaxCwnd = 128
	cc, err := udpwire.Dial(srv.Addr().String(), ccfg, 5*time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cc.Close()
	sc, err := srv.Accept(5 * time.Second)
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}

	// The receiver drains continuously; the measured window ends when the
	// last message has been delivered.
	var got atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := sc.Recv(0); err != nil {
				return
			}
			got.Add(1)
		}
	}()
	defer func() { sc.Abort(); <-done }()

	send := func(count int) {
		for i := 0; i < count; i++ {
			for cc.QueuedPackets() > 32 {
				runtime.Gosched() // backpressure: keep the backlog small
			}
			if err := cc.Send(make([]byte, 64), true); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
	}
	wait := func(target int64) {
		deadline := time.Now().Add(30 * time.Second)
		for got.Load() < target {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d messages delivered", got.Load(), target)
			}
			time.Sleep(time.Millisecond)
		}
	}

	send(warm)
	wait(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	send(n)
	wait(warm + n)
	runtime.ReadMemStats(&after)

	per := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.2f allocations per delivered 64 B message (%d messages)", per, n)
	if per > budget {
		t.Fatalf("serve datapath allocates %.2f per delivered message, budget %.0f", per, budget)
	}
	if drops := sc.DroppedDeliveries(); drops != 0 {
		t.Fatalf("%d deliveries dropped", drops)
	}
}
