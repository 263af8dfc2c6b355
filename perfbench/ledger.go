package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"syscall"
	"time"

	iqrudp "github.com/cercs/iqrudp"
	"github.com/cercs/iqrudp/internal/fec"
	"github.com/cercs/iqrudp/internal/guard"
	"github.com/cercs/iqrudp/internal/hist"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/sim"
	"github.com/cercs/iqrudp/internal/trace"
	"github.com/cercs/iqrudp/internal/uio"
	"github.com/cercs/iqrudp/internal/wheel"
)

// The layer ledger: one measurement per module, each calling the module's public
// functions with inputs generated from the workload's seed (message sizes,
// mark mix, loss pattern) and reporting ns, B and allocs per operation.

// ledgerInput is the workload shape the measurements replay.
type ledgerInput struct {
	sizes    []int  // message sizes
	marked   []bool // per message
	lossProb float64
	rng      *rand.Rand
}

func inputFor(workload string, seed int64) ledgerInput {
	in := ledgerInput{rng: rand.New(rand.NewSource(seed ^ 0x1ed9e7))}
	n := 4096
	unmarked := 0.0
	switch workload {
	case "wire-small":
		unmarked = wireUnmarked
	case "sim-lossy":
		unmarked, in.lossProb = simUnmarked, simLoss
	}
	var trace simTrace
	if workload == "sim-lossy" {
		trace = newSimTrace()
	}
	for i := 0; i < n; i++ {
		size := wireSize
		if trace != nil {
			size = trace.sizeAt(time.Duration(i) * time.Second / simFPS)
		}
		in.sizes = append(in.sizes, size)
		in.marked = append(in.marked, in.rng.Float64() >= unmarked)
	}
	return in
}

// cost is one measurement's result.
type cost struct{ ns, bytes, allocs float64 }

// measure times n calls of f, repeated reps times after a warm-up call;
// ns is the median repetition's mean, bytes and allocs the overall means.
func measure(reps, n int, f func(i int)) cost {
	for i := 0; i < n/10+1; i++ {
		f(i)
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var nss []float64
	for r := 0; r < reps; r++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		nss = append(nss, float64(time.Since(t))/float64(n))
	}
	runtime.ReadMemStats(&ms1)
	ops := float64(reps * n)
	return cost{median(nss), float64(ms1.TotalAlloc-ms0.TotalAlloc) / ops, float64(ms1.Mallocs-ms0.Mallocs) / ops}
}

const ledgerReps = 5

// ledger runs every measurement and adds its per-layer metrics to res; the
// returned map holds the ns/op figures the unaccounted-time sum uses.
func ledger(res *result, workload string, seed int64) (map[string]float64, error) {
	in := inputFor(workload, seed)
	ns := map[string]float64{}
	put := func(name, unit string, v float64) {
		res.set(name, unit, v)
		ns[name] = v
	}
	if err := ledgerUIO(in, put); err != nil {
		return nil, err
	}
	ledgerPacket(in, put)
	ledgerCore(in, put)
	ledgerFEC(in, put)
	ledgerWheel(in, put)
	ledgerGuard(in, put)
	ledgerTraceHist(in, put)
	ledgerSim(in, put)
	return ns, nil
}

type putFn func(name, unit string, v float64)

// ledgerUIO moves the workload's datagrams between two loopback sockets
// through the batched sender and receiver.
func ledgerUIO(in ledgerInput, put putFn) error {
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer rx.Close()
	tx, err := net.DialUDP("udp", nil, rx.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return err
	}
	defer tx.Close()
	const batch = 32
	tb, err := uio.NewTxBatcher(tx, batch)
	if err != nil {
		return err
	}
	bufSize := 4096
	off := uio.ProbeOffload()
	if off.GRO {
		bufSize = uio.GROBufSize
	}
	rb, err := uio.NewRxBatcher(rx, uio.NewBufPool(bufSize), batch)
	if err != nil {
		return err
	}
	if off.GRO {
		rb.EnableGRO()
	}
	// Datagrams as they would leave the machine: each message's fragments,
	// header included.
	mss := iqrudp.DefaultConfig().MSS
	var dgrams [][]byte
	for i := 0; len(dgrams) < batch*16; i++ {
		for rest := in.sizes[i%len(in.sizes)]; rest > 0 && len(dgrams) < batch*16; rest -= mss {
			dgrams = append(dgrams, make([]byte, min(rest, mss)+packet.Overhead))
		}
	}
	msgs := make([]uio.Msg, batch)
	var txNs, rxNs time.Duration
	var sent, got, recvCalls int
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for r := 0; r < ledgerReps*4; r++ {
		for b := 0; b < len(dgrams)/batch; b++ {
			for j := range msgs {
				msgs[j] = uio.Msg{B: dgrams[b*batch+j]}
			}
			t := time.Now()
			n, err := tb.Send(msgs)
			txNs += time.Since(t)
			if err != nil {
				return fmt.Errorf("uio send: %w", err)
			}
			sent += n
			want := got + n
			rx.SetReadDeadline(time.Now().Add(time.Second))
			for got < want {
				t := time.Now()
				batchMsgs, err := rb.Recv()
				got += len(batchMsgs)
				rb.Release(batchMsgs)
				rxNs += time.Since(t)
				recvCalls++
				if err != nil {
					return fmt.Errorf("uio recv: %w", err)
				}
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	put("uio.tx_ns_per_dgram", "ns", float64(txNs)/float64(sent))
	put("uio.rx_ns_per_dgram", "ns", float64(rxNs)/float64(got))
	put("uio.dgrams_per_syscall", "count", float64(got)/float64(recvCalls))
	put("uio.allocs_per_dgram", "count", float64(ms1.Mallocs-ms0.Mallocs)/float64(sent+got))
	segs, err := gsoTrains(dgrams, batch)
	if err != nil {
		return err
	}
	put("uio.gso_segs_per_send", "count", segs)
	return nil
}

// gsoTrains sends dgrams through a TxBatcher and reports how many datagrams
// arrived per coalesced train at a plain receiving socket with UDP_GRO on:
// on loopback a GSO super-datagram reaches the receiver whole, its segment
// size in a UDP_GRO control message, so the figure is what the sender's
// coalescing produced. Without GSO or GRO every train is one datagram.
func gsoTrains(dgrams [][]byte, batch int) (float64, error) {
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	defer rx.Close()
	if rc, err := rx.SyscallConn(); err == nil {
		rc.Control(func(fd uintptr) { syscall.SetsockoptInt(int(fd), udpLevel, udpGROOpt, 1) })
	}
	tx, err := net.DialUDP("udp", nil, rx.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return 0, err
	}
	defer tx.Close()
	tb, err := uio.NewTxBatcher(tx, batch)
	if err != nil {
		return 0, err
	}
	buf, oob := make([]byte, 1<<16), make([]byte, 256)
	msgs := make([]uio.Msg, batch)
	var segs, trains int
	for b := 0; b < len(dgrams)/batch; b++ {
		for j := range msgs {
			msgs[j] = uio.Msg{B: dgrams[b*batch+j]}
		}
		n, err := tb.Send(msgs)
		if err != nil {
			return 0, fmt.Errorf("uio send: %w", err)
		}
		rx.SetReadDeadline(time.Now().Add(time.Second))
		for got := 0; got < n; {
			nb, noob, _, _, err := rx.ReadMsgUDP(buf, oob)
			if err != nil {
				return 0, fmt.Errorf("gso receive: %w", err)
			}
			k := 1
			if cms, err := syscall.ParseSocketControlMessage(oob[:noob]); err == nil {
				for _, cm := range cms {
					// The kernel writes the segment size as an int.
					if cm.Header.Level == udpLevel && cm.Header.Type == udpGROOpt && len(cm.Data) >= 4 {
						if seg := int(int32(binary.NativeEndian.Uint32(cm.Data))); seg > 0 {
							k = (nb + seg - 1) / seg
						}
					}
				}
			}
			got += k
			segs += k
			trains++
		}
	}
	return ratio(float64(segs), float64(trains)), nil
}

// Linux UDP socket option numbers (SOL_UDP, UDP_GRO).
const (
	udpLevel  = 17
	udpGROOpt = 104
)

// ledgerPacket encodes and decodes the workload's DATA packets and the
// acknowledgements its loss pattern produces.
func ledgerPacket(in ledgerInput, put putFn) {
	mss := iqrudp.DefaultConfig().MSS
	var pkts []*packet.Packet
	for i, size := range in.sizes[:512] {
		p := &packet.Packet{Type: packet.DATA, ConnID: 7, Seq: uint32(i + 1), Ack: 1, Wnd: 64,
			MsgID: uint32(i), FragCnt: 1, TS: time.Duration(i) * time.Millisecond, Payload: make([]byte, min(size, mss))}
		in.rng.Read(p.Payload)
		p.Flags = packet.FlagMsgEnd
		if in.marked[i] {
			p.Flags |= packet.FlagMarked
		}
		pkts = append(pkts, p)
	}
	acks := ackPackets(in, 512)
	var wire [][]byte
	for _, p := range pkts {
		b, _ := packet.Encode(p)
		wire = append(wire, b)
	}
	var ackWire [][]byte
	for _, p := range acks {
		b, _ := packet.Encode(p)
		ackWire = append(ackWire, b)
	}
	buf := make([]byte, 0, 2048)
	var scratch packet.Packet
	enc := measure(ledgerReps, 2000, func(i int) { buf, _ = packet.AppendEncode(buf[:0], pkts[i%len(pkts)]) })
	dec := measure(ledgerReps, 2000, func(i int) { _ = packet.DecodeInto(&scratch, wire[i%len(wire)], scratch.Payload) })
	decAlloc := measure(ledgerReps, 2000, func(i int) { _, _ = packet.Decode(wire[i%len(wire)]) })
	encAck := measure(ledgerReps, 2000, func(i int) { buf, _ = packet.AppendEncode(buf[:0], acks[i%len(acks)]) })
	decAck := measure(ledgerReps, 2000, func(i int) { _ = packet.DecodeInto(&scratch, ackWire[i%len(ackWire)], scratch.Payload) })
	put("packet.encode_data_ns", "ns", enc.ns)
	put("packet.decode_data_ns", "ns", dec.ns)
	put("packet.decode_alloc_ns", "ns", decAlloc.ns)
	put("packet.encode_ack_ns", "ns", encAck.ns)
	put("packet.decode_ack_ns", "ns", decAck.ns)
	put("packet.allocs_per_pkt", "count", enc.allocs+dec.allocs)
	put("packet.bytes_per_pkt", "B", enc.bytes+dec.bytes)
}

// ackPackets builds the acknowledgements a receiver sends for n DATA
// packets under the workload's loss pattern: a cumulative ACK while the
// stream is contiguous, an EACK (with the ack-vector) while holes are open.
func ackPackets(in ledgerInput, n int) []*packet.Packet {
	var out []*packet.Packet
	cum := uint32(1)
	var ooo []uint32
	for seq := uint32(1); seq <= uint32(n); seq++ {
		if in.rng.Float64() < in.lossProb {
			continue
		}
		if seq == cum && len(ooo) == 0 {
			cum++
		} else {
			ooo = append(ooo, seq)
			if len(ooo) > 48 { // the hole is repaired: the ack jumps
				cum = seq + 1
				ooo = ooo[:0]
			}
		}
		p := &packet.Packet{Type: packet.ACK, ConnID: 7, Seq: 1, Ack: cum, Wnd: 64, TS: time.Duration(seq), TSEcho: time.Duration(seq)}
		if len(ooo) > 0 {
			p.Type = packet.EACK
			p.Eacks = append([]uint32(nil), ooo...)
		}
		out = append(out, p)
	}
	return out
}

// ledgerFEC folds the workload's first transmissions into repair groups and
// recovers its losses.
func ledgerFEC(in ledgerInput, put putFn) {
	mss := iqrudp.DefaultConfig().MSS
	var payloads [][]byte
	for _, size := range in.sizes[:1024] {
		b := make([]byte, min(size, mss))
		in.rng.Read(b)
		payloads = append(payloads, b)
	}
	enc := fec.NewEncoder(fec.XOR{}, simFECGroup)
	var flushNs time.Duration
	var flushes int
	seq := uint32(1)
	type repair struct {
		base   uint32
		span   int
		parity []byte
	}
	var repairs []repair
	add := measure(ledgerReps, 4096, func(i int) {
		if enc.Add(seq, packet.FlagMarked, uint32(i), 0, 1, nil, payloads[i%len(payloads)]) {
			t := time.Now()
			base, span, parity, ok := enc.Flush()
			flushNs += time.Since(t)
			flushes++
			if ok && len(repairs) < 256 {
				repairs = append(repairs, repair{base, span, append([]byte(nil), parity...)})
			}
		}
		seq++
	})
	flush := float64(flushNs) / float64(max(flushes, 1))
	put("fec.add_ns", "ns", add.ns-flush/simFECGroup) // one flush per group rides in add's loop
	put("fec.flush_ns", "ns", flush)

	// Receive side: data arrives under the loss pattern, then the repairs.
	dataSeqs := make([]uint32, 0, simFECGroup*len(repairs))
	for _, r := range repairs {
		for s := r.base; s < r.base+uint32(r.span); s++ {
			if in.rng.Float64() >= in.lossProb {
				dataSeqs = append(dataSeqs, s)
			}
		}
	}
	var onData, onRepair time.Duration
	var nData, nRepair int
	for rep := 0; rep < ledgerReps; rep++ {
		dec := fec.NewDecoder(fec.XOR{}, 0)
		var recs []fec.Recovered
		di := 0
		for _, r := range repairs {
			t := time.Now()
			for di < len(dataSeqs) && dataSeqs[di] < r.base+uint32(r.span) {
				s := dataSeqs[di]
				recs = dec.OnData(s, packet.FlagMarked, s, 0, 1, nil, payloads[int(s)%len(payloads)], time.Duration(s), recs[:0])
				di++
				nData++
			}
			t1 := time.Now()
			onData += t1.Sub(t)
			recs = dec.OnRepair(r.base, r.span, r.parity, r.base, time.Duration(r.base), recs[:0])
			onRepair += time.Since(t1)
			nRepair++
		}
	}
	put("fec.ondata_ns", "ns", float64(onData)/float64(max(nData, 1)))
	put("fec.onrepair_ns", "ns", float64(onRepair)/float64(max(nRepair, 1)))
}

// ledgerWheel arms and stops the workload's timer mix on a timing wheel and
// measures how late short deadlines fire.
func ledgerWheel(in ledgerInput, put putFn) {
	w := wheel.New(0)
	defer w.Close()
	fired := make(chan struct{}, 256)
	timers := make([]*wheel.Timer, 256)
	for i := range timers {
		timers[i] = w.NewTimer(func(uint64) {
			select {
			case fired <- struct{}{}:
			default:
			}
		})
	}
	ds := make([]time.Duration, 1024)
	for i := range ds {
		ds[i] = time.Duration(50+in.rng.Intn(200)) * time.Millisecond
	}
	arm := measure(ledgerReps, 4096, func(i int) { timers[i%len(timers)].Arm(ds[i%len(ds)]) })
	stop := measure(ledgerReps, 4096, func(i int) {
		t := timers[i%len(timers)]
		t.Arm(ds[i%len(ds)])
		t.Stop()
	})
	put("wheel.arm_ns", "ns", arm.ns)
	put("wheel.stop_ns", "ns", stop.ns-arm.ns)
	lh := hist.NewLatency(hist.MetricWheelLateness)
	w.SetLatenessHist(lh)
	const short = 64
	for i := 0; i < short; i++ {
		timers[i].Arm(time.Duration(1+in.rng.Intn(20)) * time.Millisecond)
	}
	deadline := time.After(2 * time.Second)
	for n := 0; n < short; n++ {
		select {
		case <-fired:
		case <-deadline:
			n = short
		}
	}
	put("wheel.fire_lateness_p99_us", "us", lh.Snapshot().Quantile(0.99)/1e3)
}

// ledgerGuard mints and verifies address-validation cookies and runs the
// per-prefix SYN limiter over seeded source addresses.
func ledgerGuard(in ledgerInput, put putFn) {
	cs := guard.NewCookieSource(15 * time.Second)
	pl := guard.NewPrefixLimiter(1e9, 4096)
	addrs := make([]*net.UDPAddr, 256)
	for i := range addrs {
		addrs[i] = &net.UDPAddr{IP: net.IPv4(127, byte(in.rng.Intn(256)), byte(in.rng.Intn(256)), byte(1+in.rng.Intn(250))), Port: 1024 + in.rng.Intn(60000)}
	}
	now := time.Now()
	cookies := make([][]byte, len(addrs))
	for i, a := range addrs {
		cookies[i] = cs.Mint(a, uint32(i+1), now)
	}
	mint := measure(ledgerReps, 2000, func(i int) { _ = cs.Mint(addrs[i%len(addrs)], uint32(i), now) })
	verify := measure(ledgerReps, 2000, func(i int) {
		j := i % len(addrs)
		_ = cs.Verify(cookies[j], addrs[j], uint32(j+1), now)
	})
	allow := measure(ledgerReps, 4000, func(i int) { _ = pl.Allow(addrs[i%len(addrs)].IP, now) })
	put("guard.mint_ns", "ns", mint.ns)
	put("guard.verify_ns", "ns", verify.ns)
	put("guard.prefix_allow_ns", "ns", allow.ns)
}

// ledgerTraceHist records the workload's packet events into a flight ring
// and its latencies into a histogram.
func ledgerTraceHist(in ledgerInput, put putFn) {
	r := trace.NewRing(64)
	evs := make([]trace.Event, 512)
	for i := range evs {
		evs[i] = trace.Event{Time: time.Duration(i) * time.Microsecond, Type: trace.PacketSent, ConnID: 7,
			Seq: uint32(i), MsgID: uint32(i), Size: in.sizes[i%len(in.sizes)], Marked: in.marked[i%len(in.marked)]}
	}
	ring := measure(ledgerReps, 4096, func(i int) { r.Trace(evs[i%len(evs)]) })
	put("trace.ring_ns", "ns", ring.ns)
	put("trace.ring_allocs", "count", ring.allocs)
	h := hist.NewLatency(hist.MetricDelivery)
	vals := make([]time.Duration, 1024)
	for i := range vals {
		vals[i] = time.Duration(in.rng.ExpFloat64() * float64(time.Millisecond))
	}
	rec := measure(ledgerReps, 8192, func(i int) { h.RecordDur(vals[i%len(vals)]) })
	put("hist.record_ns", "ns", rec.ns)
}

// ledgerSim schedules and dispatches the simulator's event mix: a timer per
// event at seeded virtual delays.
func ledgerSim(in ledgerInput, put putFn) {
	ds := make([]time.Duration, 1024)
	for i := range ds {
		ds[i] = time.Duration(in.rng.Intn(30000)) * time.Microsecond
	}
	var nss []float64
	for r := 0; r < ledgerReps; r++ {
		s := sim.New(int64(r))
		fn := func() {}
		for i := 0; i < 8192; i++ {
			s.After(ds[i%len(ds)], fn)
		}
		t := time.Now()
		n := 0
		for s.Step() {
			n++
		}
		nss = append(nss, float64(time.Since(t))/float64(n))
	}
	put("sim.step_ns", "ns", median(nss))
}
