package core_test

import (
	"math/rand"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/race"
	"github.com/cercs/iqrudp/internal/sim"
)

// lossyPipe is an allocation-free wire between two machines: Emit encodes
// into reused slot buffers, pump decodes into one reused packet, and timers
// are recycled sim handles. drop decides, per emitted packet, whether the
// wire loses it.
type lossyPipe struct {
	s     *sim.Scheduler
	pool  *sim.TimerPool
	q     []pipeFrame
	slots [][]byte
	rx    packet.Packet
	drop  func(p *packet.Packet) bool
}

type pipeFrame struct {
	dst *core.Machine
	b   []byte
}

type pipeEnd struct {
	w    *lossyPipe
	peer *core.Machine
}

func (e *pipeEnd) Now() time.Duration { return e.w.s.Now() }
func (e *pipeEnd) Emit(p *packet.Packet) {
	w := e.w
	if w.drop != nil && w.drop(p) {
		return
	}
	i := len(w.q)
	if i == len(w.slots) {
		w.slots = append(w.slots, nil)
	}
	b, err := packet.AppendEncode(w.slots[i][:0], p)
	if err != nil {
		panic(err)
	}
	w.slots[i] = b
	w.q = append(w.q, pipeFrame{dst: e.peer, b: b})
}
func (e *pipeEnd) Deliver(core.Message) {}
func (e *pipeEnd) After(d time.Duration, fn func()) core.Timer {
	return e.w.pool.After(d, fn)
}

// pump hands queued packets to their machines until the wire is empty.
// Packets emitted while pumping join the queue behind the current batch.
func (w *lossyPipe) pump() {
	for i := 0; i < len(w.q); i++ {
		f := w.q[i]
		if err := packet.DecodeInto(&w.rx, f.b, w.rx.Payload[:0]); err != nil {
			panic(err)
		}
		f.dst.HandlePacket(&w.rx)
	}
	w.q = w.q[:0]
}

// TestLossyAckPathZeroAlloc pins the ack path under loss: with holes at the
// receiver, every duplicate arrival makes it emit an EACK (sorted extents)
// and every EACK makes the sender rescan its flight for proven losses. Once
// warm, that exchange allocates nothing.
func TestLossyAckPathZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := sim.New(11)
	w := &lossyPipe{s: s, pool: sim.NewTimerPool(s)}
	sEnd, rEnd := &pipeEnd{w: w}, &pipeEnd{w: w}
	snd := core.NewMachine(core.DefaultConfig(), sEnd)
	rcv := core.NewMachine(core.DefaultConfig(), rEnd)
	sEnd.peer, rEnd.peer = rcv, snd
	rcv.StartServer()
	snd.StartClient()
	w.pump()
	if !snd.Established() || !rcv.Established() {
		t.Fatal("handshake did not complete")
	}

	// Seeded drops: the first data packet is lost for good, leaving a hole
	// the receiver cannot pass, and a tenth of the rest are lost too.
	rng := rand.New(rand.NewSource(5))
	hole := uint32(0)
	var lastHeld []byte
	w.drop = func(p *packet.Packet) bool {
		if p.Type != packet.DATA {
			return false
		}
		if hole == 0 {
			hole = p.Seq
		}
		return p.Seq == hole || rng.Float64() < 0.1
	}
	payload := make([]byte, 600)
	for i := 0; i < 40; i++ {
		if err := snd.Send(payload, true); err != nil {
			t.Fatal(err)
		}
	}
	// Keep a copy of the last data packet that reaches the receiver.
	for _, f := range w.q {
		if f.dst == rcv {
			lastHeld = append(lastHeld[:0], f.b...)
		}
	}
	w.pump()
	if lastHeld == nil {
		t.Fatal("no data reached the receiver")
	}
	w.drop = func(p *packet.Packet) bool { return p.Type == packet.DATA }

	var dup packet.Packet
	exchange := func() {
		if err := packet.DecodeInto(&dup, lastHeld, dup.Payload[:0]); err != nil {
			panic(err)
		}
		rcv.HandlePacket(&dup) // duplicate out-of-order arrival → EACK
		w.pump()               // EACK → sender's loss scan
	}
	for i := 0; i < 10; i++ {
		exchange()
	}
	if m := snd.Metrics(); m.Retransmits == 0 {
		t.Fatalf("the exchange never detected a loss: %v", m)
	}
	if n := testing.AllocsPerRun(200, exchange); n != 0 {
		t.Fatalf("steady-state ack/eack exchange allocates %.1f objects, want 0", n)
	}
}

// TestMachineConstructionAllocs pins the flattened machine. NewHists is the
// set plus one bucket array shared by its five histograms. NewMachine with
// the serve engine's per-connection settings (flight ring, histograms) is
// the machine itself, its flight ring (struct and slots) and the attribute
// registry's first entry: the controller, estimators, reassembler and
// coordinator live inside the machine, and the out-of-order and skipped-
// message maps and the timer callbacks cost nothing until first used.
func TestMachineConstructionAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if n := testing.AllocsPerRun(100, func() { _ = core.NewHists() }); n != 2 {
		t.Fatalf("NewHists allocates %v, want 2", n)
	}
	cfg := core.DefaultConfig()
	cfg.FlightEvents = 64
	cfg.Hists = core.NewHists()
	env := &pipeEnd{}
	n := testing.AllocsPerRun(100, func() { _ = core.NewMachine(cfg, env) })
	t.Logf("NewMachine allocates %v", n)
	if n > 5 {
		t.Fatalf("NewMachine allocates %v, want at most 5", n)
	}
}
