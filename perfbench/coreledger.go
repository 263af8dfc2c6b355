package main

import (
	"runtime"
	"time"

	iqrudp "github.com/cercs/iqrudp"
	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/sim"
)

// The core ledger drives two machines back to back on a simulated clock
// (internal/sim): no sockets, no encoding. Packets a machine emits are copied into a queue and
// handed to the peer in rounds, so each kind of call is timed in a batch.

type pipeEnv struct {
	s         *sim.Scheduler
	out       []*packet.Packet
	delivered int
}

func (e *pipeEnv) Now() time.Duration { return e.s.Now() }
func (e *pipeEnv) Emit(p *packet.Packet) {
	q := packet.Get()
	pl, ea := q.Payload[:0], q.Eacks[:0]
	*q = *p
	q.Payload = append(pl, p.Payload...)
	q.Eacks = append(ea, p.Eacks...)
	e.out = append(e.out, q)
}
func (e *pipeEnv) Deliver(core.Message) { e.delivered++ }
func (e *pipeEnv) After(d time.Duration, fn func()) core.Timer {
	return e.s.After(d, fn)
}

type coreRun struct {
	sendNs, dataNs, ackNs, lossyAckNs  time.Duration
	msgs, dataPkts, ackPkts, lossyAcks int
	allocs                             uint64
	metrics                            core.Metrics
}

// coreExchange sends the workload's messages from one machine to another in
// rounds of round messages, dropping DATA packets under the loss pattern.
func coreExchange(in ledgerInput, msgs, round int) coreRun {
	var run coreRun
	clk := sim.New(0)
	sEnv, rEnv := &pipeEnv{s: clk}, &pipeEnv{s: clk}
	// advance moves the clock d ahead, firing every timer due by then.
	advance := func(d time.Duration) { clk.RunUntil(clk.Now() + d) }
	scfg := iqrudp.DefaultConfig()
	rcfg := iqrudp.ServerConfig(wireTol)
	snd, rcv := core.NewMachine(scfg, sEnv), core.NewMachine(rcfg, rEnv)
	rcv.StartServer()
	snd.StartClient()
	hand := func(to *core.Machine, from *pipeEnv) {
		for _, q := range from.out {
			to.HandlePacket(q)
			packet.Put(q)
		}
		from.out = from.out[:0]
	}
	for i := 0; i < 50 && !(snd.Established() && rcv.Established()); i++ {
		hand(rcv, sEnv)
		hand(snd, rEnv)
		advance(time.Millisecond)
	}
	payloads := make([][]byte, msgs)
	for i := range payloads {
		payloads[i] = make([]byte, in.sizes[i%len(in.sizes)])
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sent := 0
	lossy := false
	for sent < msgs || len(sEnv.out) > 0 || snd.QueuedPackets() > 0 || snd.Metrics().InFlight > 0 {
		if sent >= msgs && len(sEnv.out) == 0 && len(rEnv.out) == 0 {
			advance(50 * time.Millisecond) // let timers drive the tail
			if clk.Now() > time.Hour {
				break
			}
		}
		t := time.Now()
		for k := 0; k < round && sent < msgs; k++ {
			snd.Send(payloads[sent], in.marked[sent%len(in.marked)])
			sent++
			run.msgs++
		}
		run.sendNs += time.Since(t)
		// DATA to the receiver, minus the seeded losses.
		kept := sEnv.out[:0]
		for _, q := range sEnv.out {
			if q.Type == packet.DATA && in.rng.Float64() < in.lossProb {
				packet.Put(q)
				lossy = true
				continue
			}
			kept = append(kept, q)
		}
		sEnv.out = kept
		t = time.Now()
		for _, q := range sEnv.out {
			if q.Type == packet.DATA {
				run.dataPkts++
			}
			rcv.HandlePacket(q)
			packet.Put(q)
		}
		run.dataNs += time.Since(t)
		sEnv.out = sEnv.out[:0]
		advance(100 * time.Microsecond)
		// Acknowledgements back to the sender.
		holes := false
		for _, q := range rEnv.out {
			if q.Type == packet.EACK {
				holes = true
			}
		}
		t = time.Now()
		n := len(rEnv.out)
		hand(snd, rEnv)
		d := time.Since(t)
		if holes || lossy {
			run.lossyAckNs += d
			run.lossyAcks += n
		} else {
			run.ackNs += d
			run.ackPkts += n
		}
		lossy = holes
		advance(100 * time.Microsecond)
	}
	runtime.ReadMemStats(&ms1)
	run.allocs = ms1.Mallocs - ms0.Mallocs
	run.metrics = snd.Metrics()
	return run
}

func ledgerCore(in ledgerInput, put putFn) {
	var runs []coreRun
	for r := 0; r < 3; r++ {
		runs = append(runs, coreExchange(in, 4096, 16))
	}
	pick := func(f func(coreRun) float64) float64 {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	put("core.send_ns_per_msg", "ns", pick(func(r coreRun) float64 { return float64(r.sendNs) / float64(r.msgs) }))
	put("core.handle_data_ns", "ns", pick(func(r coreRun) float64 { return float64(r.dataNs) / float64(max(r.dataPkts, 1)) }))
	put("core.handle_ack_ns", "ns", pick(func(r coreRun) float64 { return float64(r.ackNs) / float64(max(r.ackPkts, 1)) }))
	put("core.handle_ack_lossy_ns", "ns", pick(func(r coreRun) float64 { return float64(r.lossyAckNs) / float64(max(r.lossyAcks, 1)) }))
	put("core.allocs_per_msg", "count", pick(func(r coreRun) float64 { return float64(r.allocs) / float64(r.msgs) }))
	put("core.pkts_per_msg", "count", pick(func(r coreRun) float64 { return float64(r.metrics.SentPackets) / float64(r.msgs) }))
}
