package simnet_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"testing"
	"time"

	iqrudp "github.com/cercs/iqrudp"
	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/race"
	"github.com/cercs/iqrudp/simnet"
)

// lossyWorld is a seeded lossy dumbbell: 10% bottleneck loss, 5 Mb/s CBR
// cross traffic, and one IQ-RUDP flow with FEC group 16 sending 30 frames a
// second larger than the MSS, 30% of them unmarked at receiver tolerance
// 0.3. It is the shape of the benchmark's sim-lossy workload, scaled down.
type lossyWorld struct {
	s        *simnet.Scheduler
	snd, rcv *simnet.Endpoint
	frames   *simnet.Ticker
	cross    *simnet.CBR
	sent     int
	got      int
	digest   func(core.Message)
}

func newLossyWorld(t testing.TB, seed int64) *lossyWorld {
	t.Helper()
	w := &lossyWorld{s: simnet.NewScheduler(seed)}
	dcfg := simnet.DefaultDumbbell()
	dcfg.LossProb = 0.10
	d := simnet.NewDumbbell(w.s, dcfg)
	scfg := iqrudp.DefaultConfig()
	scfg.FECGroup = 16
	rcfg := iqrudp.ServerConfig(0.3)
	rcfg.FECGroup = 16
	w.snd, w.rcv = simnet.Pair(d, scfg, rcfg)
	if !simnet.WaitEstablished(w.s, w.snd, w.rcv, 5*time.Second) {
		t.Fatal("handshake failed")
	}
	w.cross = simnet.NewCBR(d, 5e6, 1000)
	w.cross.Start()
	w.rcv.OnMessage = func(msg core.Message) {
		w.got++
		if w.digest != nil {
			w.digest(msg)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	payload := make([]byte, 6000)
	rng.Read(payload)
	w.frames = simnet.NewTicker(w.s, time.Second/30, func() {
		size := 2000 + rng.Intn(4000)
		marked := rng.Float64() >= 0.3
		w.sent++
		w.snd.Machine.Send(payload[:size], marked)
	})
	return w
}

// TestGoldenLossyEventStream pins the simulator's event stream: every
// delivery's (message ID, marked, partial, delivery time), both machines' metrics
// and the scheduler's event count hash to a constant. A change to the
// scheduler, links, frame handling or codec that reorders events or
// consumes a random draw differently changes the digest.
func TestGoldenLossyEventStream(t *testing.T) {
	const want = 0xd33ce8f98537114e
	w := newLossyWorld(t, 7)
	h := fnv.New64a()
	w.digest = func(msg core.Message) {
		fmt.Fprintf(h, "%d %t %t %d\n", msg.ID, msg.Marked, msg.Partial, msg.DeliveredAt)
	}
	w.s.RunUntil(w.s.Now() + 20*time.Second)
	w.frames.Stop()
	w.s.RunUntil(w.s.Now() + 5*time.Second)
	w.cross.Stop()
	fmt.Fprintf(h, "snd %#v\nrcv %#v\nfired %d\n", w.snd.Machine.Metrics(), w.rcv.Machine.Metrics(), w.s.Fired())
	if w.got == 0 || w.got > w.sent {
		t.Fatalf("delivered %d of %d frames", w.got, w.sent)
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("event-stream digest %#x, want %#x (sent %d, delivered %d, fired %d)", got, uint64(want), w.sent, w.got, w.s.Fired())
	}
}

// TestSimSteadyStateAllocBudget bounds what the virtual-time datapath
// allocates per delivered message once warm: scheduler events, link hops,
// frames, encode/decode, timers and FEC folding allocate nothing, leaving
// the delivered Message.Data, eack sorting and reassembly slack.
func TestSimSteadyStateAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const budget = 8.0
	w := newLossyWorld(t, 3)
	w.s.RunUntil(w.s.Now() + 10*time.Second)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	got0 := w.got
	w.s.RunUntil(w.s.Now() + 30*time.Second)
	runtime.ReadMemStats(&ms1)
	delivered := w.got - got0
	if delivered < 500 {
		t.Fatalf("only %d messages delivered in the window", delivered)
	}
	per := float64(ms1.Mallocs-ms0.Mallocs) / float64(delivered)
	t.Logf("%.1f allocs per delivered message over %d messages", per, delivered)
	if per > budget {
		t.Fatalf("%.1f allocs per delivered message, budget %.0f", per, budget)
	}
}
