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
	// Default client config: its sendPkt freelist holds a full flight
	// (MaxCwnd capped by the server's advertised window), so the client's
	// send path is measured too.
	cc, err := udpwire.Dial(srv.Addr().String(), testConfig(), 5*time.Second)
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

// TestConnLifecycleAllocBudget pins the per-connection cost of the accept
// path end to end: one client repeatedly dials an AlwaysValidate engine
// (every handshake takes the RETRY + cookie round trip), sends 16 marked
// 64 B messages and closes, while the server side drains each accepted
// connection and closes it once the peer's FIN has landed — the
// churn-validate cycle of perfbench. The figure is process-wide, so it
// counts the client's dial (socket, batchers, machine) as well as the
// engine's admission, machine, archive and teardown.
//
// On a 2-CPU host this measured 343 per cycle before the lifecycle was
// made allocation-lean (a fresh HMAC per cookie, a re-merged archive per
// close, a machine assembled from a dozen separate objects) and 243–249
// after it, at GOMAXPROCS 1 to 8. The budget sits just above that range,
// so reverting any one of the cookie, archive or machine changes fails it.
func TestConnLifecycleAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items under -race")
	}
	const (
		warm   = 20
		n      = 200
		msgs   = 16
		budget = 255.0
	)
	srv := startServer(t, Options{Shards: 1, AlwaysValidate: true, DrainTimeout: time.Second})

	var served atomic.Int64
	go func() {
		for {
			sc, err := srv.Accept(0)
			if err != nil {
				return
			}
			for {
				if _, err := sc.Recv(0); err != nil {
					break
				}
			}
			sc.Close()
			served.Add(1)
		}
	}()

	payload := make([]byte, 64)
	cycle := func() {
		cc, err := udpwire.Dial(srv.Addr().String(), testConfig(), 5*time.Second)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		for i := 0; i < msgs; i++ {
			if err := cc.Send(payload, true); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
		cc.Close()
	}
	settle := func(target int64) {
		deadline := time.Now().Add(10 * time.Second)
		for served.Load() < target || srv.Conns() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d connections served, %d still open", served.Load(), target, srv.Conns())
			}
			time.Sleep(time.Millisecond)
		}
	}

	for i := 0; i < warm; i++ {
		cycle()
	}
	settle(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		cycle()
	}
	settle(warm + n)
	runtime.ReadMemStats(&after)

	per := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.1f allocations per dial → %d marked msgs → close cycle (%d cycles)", per, msgs, n)
	if per > budget {
		t.Fatalf("connection lifecycle allocates %.1f per cycle, budget %.0f", per, budget)
	}
	if st := srv.Stats(); st.RetrySent < warm+n {
		t.Fatalf("%d RETRYs for %d dials: cookie path not exercised", st.RetrySent, warm+n)
	}
}
