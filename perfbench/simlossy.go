package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	iqrudp "github.com/cercs/iqrudp"
	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/simnet"
)

// sim-lossy: the paper's dumbbell (20 Mb/s, 30 ms RTT, drop-tail) in virtual
// time, with CBR cross traffic and 10% seeded bottleneck loss. One IQ-RUDP
// flow carries membership-trace frames larger than the MSS; 30% of them are
// unmarked at receiver tolerance 0.3, and FEC runs with group 16.
const (
	simLoss      = 0.10
	simCrossBps  = 5e6
	simCrossPkt  = 1000
	simFPS       = 30
	simUnit      = 2000 // bytes per group member
	simUnmarked  = 0.3
	simTol       = 0.3
	simFECGroup  = 16
	simDuration  = 300 * time.Second // virtual seconds of frames
	simDrainTime = 30 * time.Second  // virtual grace for the tail to drain
	// simTraceShare is the untraced runs' share of --seconds in a traced run.
	simTraceShare = 0.3
)

// simOutcome is one simulation's virtual-time result; two runs with the same
// seed must produce identical outcomes.
type simOutcome struct {
	Digest        uint64 // over every delivery's (seq, marked, time)
	Frames        int
	MarkedSent    int
	UnmarkedSent  int
	MarkedGot     int
	UnmarkedGot   int
	Partial       int
	Disorder      int
	BadSum        int
	PayloadBytes  uint64
	Lat           []float64 // marked frames, virtual ns from due to delivery
	End           time.Duration
	Metrics       core.Metrics // sender
	RcvMetrics    core.Metrics
	AckFrames     uint64 // frames on the reverse path (acknowledgements)
	Fired         uint64
	BottleSent    uint64
	BottleDropped uint64
	QueueSamples  []float64

	setup  time.Duration // wall clock: topology built and handshake done
	cpu    time.Duration // process CPU for the whole simulation
	allocs uint64        // heap objects allocated during the simulation
	rssMB  float64       // process peak RSS during the simulation
}

// timedTransport wraps a machine so every call into it is a span.
type timedTransport struct {
	m   *core.Machine
	rec *spanRec
}

func (t *timedTransport) StartClient()      { t.m.StartClient() }
func (t *timedTransport) StartServer()      { t.m.StartServer() }
func (t *timedTransport) Established() bool { return t.m.Established() }
func (t *timedTransport) HandlePacket(p *packet.Packet) {
	name := "core.HandlePacket.ack"
	if p.Type == packet.DATA {
		name = "core.HandlePacket.data"
	} else if p.Type == packet.REPAIR {
		name = "core.HandlePacket.repair"
	}
	t.rec.begin(name, uint64(p.Seq))
	t.m.HandlePacket(p)
	t.rec.end()
}
func (t *timedTransport) Send(data []byte, marked bool) error {
	t.rec.begin("core.Send", 0)
	err := t.m.Send(data, marked)
	t.rec.end()
	return err
}
func (t *timedTransport) CanSend() bool        { return t.m.CanSend() }
func (t *timedTransport) QueuedPackets() int   { return t.m.QueuedPackets() }
func (t *timedTransport) OnWritable(fn func()) { t.m.OnWritable(fn) }
func (t *timedTransport) Close()               { t.m.Close() }

// simRun runs one seeded simulation. rec, when non-nil, times every call
// into the machines and samples the bottleneck queue.
func simRun(seed int64, rec *spanRec, tracer *rtoTracer) simOutcome {
	var out simOutcome
	runtime.GC()
	if err := resetPeakRSS(); err != nil {
		out.rssMB = -1
	}
	cpu0, allocs0 := cpuTime(), allocObjects()
	wall0 := time.Now()
	s := simnet.NewScheduler(seed)
	dcfg := simnet.DefaultDumbbell()
	dcfg.LossProb = simLoss
	d := simnet.NewDumbbell(s, dcfg)
	sndCfg := iqrudp.DefaultConfig()
	sndCfg.FECGroup = simFECGroup
	rcvCfg := iqrudp.ServerConfig(simTol)
	rcvCfg.FECGroup = simFECGroup
	if tracer != nil {
		sndCfg.Tracer = tracer
	}
	var sm, rm *core.Machine
	wrap := func(m *core.Machine) simnet.Transport {
		if rec == nil {
			return m
		}
		return &timedTransport{m: m, rec: rec}
	}
	snd, rcv := simnet.PairTransport(d,
		func(env core.Env) simnet.Transport { sm = core.NewMachine(sndCfg, env); return wrap(sm) },
		func(env core.Env) simnet.Transport { rm = core.NewMachine(rcvCfg, env); return wrap(rm) })
	if !simnet.WaitEstablished(s, snd, rcv, 5*time.Second) {
		out.BadSum = -1
		return out
	}
	out.setup = time.Since(wall0)

	cross := simnet.NewCBR(d, simCrossBps, simCrossPkt)
	cross.Start()
	trace := newSimTrace()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	h := fnv.New64a()
	var lastSeq int64 = -1
	rcv.OnMessage = func(msg core.Message) {
		if msg.Partial {
			out.Partial++
			return
		}
		hd, err := parseMsg(msg.Data)
		if err != nil || hd.marked != msg.Marked {
			out.BadSum++
			return
		}
		if int64(hd.seq) <= lastSeq {
			out.Disorder++
		}
		lastSeq = int64(hd.seq)
		var b [17]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(hd.seq >> (8 * i))
			b[8+i] = byte(uint64(msg.DeliveredAt) >> (8 * i))
		}
		if hd.marked {
			b[16] = 1
			out.MarkedGot++
			out.Lat = append(out.Lat, float64(msg.DeliveredAt-time.Duration(hd.due)))
		} else {
			out.UnmarkedGot++
		}
		out.PayloadBytes += uint64(len(msg.Data))
		h.Write(b[:])
	}

	start := s.Now()
	var seq uint64
	var ticker *simnet.Ticker
	ticker = simnet.NewTicker(s, time.Second/simFPS, func() {
		el := s.Now() - start
		if el >= simDuration {
			ticker.Stop()
			return
		}
		size := trace.sizeAt(el)
		marked := rng.Float64() >= simUnmarked
		b := make([]byte, size)
		fillMsg(b, msgHeader{seq: seq, marked: marked, due: int64(s.Now())}, rng)
		seq++
		out.Frames++
		if marked {
			out.MarkedSent++
		} else {
			out.UnmarkedSent++
		}
		if err := snd.T.Send(b, marked); err != nil {
			out.BadSum++
		}
	})
	if rec != nil {
		var q *simnet.Ticker
		q = simnet.NewTicker(s, time.Millisecond, func() {
			if s.Now()-start > simDuration+simDrainTime {
				q.Stop()
				return
			}
			out.QueueSamples = append(out.QueueSamples, float64(d.Bottleneck().QueuedPackets()))
		})
	}
	// Run the frames, then let the tail drain (marked delivery completes).
	s.RunUntil(start + simDuration)
	for s.Now() < start+simDuration+simDrainTime && out.MarkedGot < out.MarkedSent {
		s.RunUntil(s.Now() + 100*time.Millisecond)
	}
	cross.Stop()
	out.End = s.Now() - start
	out.Digest = h.Sum64()
	out.Metrics = sm.Metrics()
	out.RcvMetrics = rm.Metrics()
	out.AckFrames = d.Reverse().Stats().Sent
	out.Fired = s.Fired()
	st := d.Bottleneck().Stats()
	out.BottleSent, out.BottleDropped = st.Sent, st.Dropped
	out.cpu, out.allocs = cpuTime()-cpu0, allocObjects()-allocs0
	if out.rssMB == 0 {
		out.rssMB = vmHWMMB()
	}
	return out
}

// simTrace is the frame-size input: a membership series whose group size
// times simUnit sizes each frame. It is a fixed input, as the paper's
// recorded MBone trace is; the seed drives loss, marking and payloads.
type simTrace simnet.Trace

func newSimTrace() simTrace {
	tcfg := simnet.DefaultTraceConfig()
	tcfg.Duration = simDuration
	return simTrace(simnet.MembershipTrace(tcfg))
}

func (t simTrace) sizeAt(el time.Duration) int {
	return max(simnet.Trace(t).At(el), 1) * simUnit
}

// same reports whether two runs produced identical virtual-time results.
func (a simOutcome) same(b simOutcome) bool {
	if a.Digest != b.Digest || a.Frames != b.Frames || a.MarkedGot != b.MarkedGot ||
		a.UnmarkedGot != b.UnmarkedGot || a.End != b.End || a.Metrics != b.Metrics || len(a.Lat) != len(b.Lat) {
		return false
	}
	for i := range a.Lat {
		if a.Lat[i] != b.Lat[i] {
			return false
		}
	}
	return true
}

func runSimLossy(o options) (*result, error) {
	res := newResult()
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var runs []simOutcome
	// At least two runs (the determinism check); more while the budget lasts,
	// for the CPU and set-up medians.
	if o.trace {
		budget = time.Duration(float64(budget) * simTraceShare)
	}
	for len(runs) < 2 || time.Since(start)+time.Since(start)/time.Duration(len(runs)) < budget {
		runs = append(runs, simRun(o.seed, nil, nil))
	}
	first := runs[0]
	if first.BadSum < 0 {
		return nil, fmt.Errorf("simulated handshake did not complete")
	}
	for i, r := range runs[1:] {
		if !first.same(r) {
			res.fail("run %d of seed %d differs from run 1: the simulation is not deterministic", i+2, o.seed)
		}
	}
	var cpus, setups, rss, allocs []float64
	for _, r := range runs {
		cpus = append(cpus, float64(r.cpu)/1e3/float64(r.MarkedGot+r.UnmarkedGot))
		allocs = append(allocs, float64(r.allocs)/float64(r.MarkedGot+r.UnmarkedGot))
		setups = append(setups, r.setup.Seconds())
		rss = append(rss, r.rssMB)
	}

	// Correctness: marked exactly once in order, unmarked loss in tolerance.
	failed := int64(first.Disorder + first.BadSum)
	if first.Disorder > 0 || first.BadSum > 0 {
		res.fail("%d out-of-order or duplicate, %d corrupt frames", first.Disorder, first.BadSum)
	}
	if first.MarkedGot != first.MarkedSent {
		res.fail("%d marked frames delivered, %d sent", first.MarkedGot, first.MarkedSent)
		failed += absInt(int64(first.MarkedSent - first.MarkedGot))
	}
	lostU := first.UnmarkedSent - first.UnmarkedGot
	if allowed := int(simTol * float64(first.Frames)); lostU > allowed {
		res.fail("unmarked lost %d, tolerance allows %d", lostU, allowed)
		failed += int64(lostU - allowed)
	}
	// Every undelivered unmarked frame must be one the engine accounts for:
	// discarded or shed by the sender, or skipped or delivered partial by the
	// receiver.
	explained := int(first.Metrics.SenderDiscards + first.Metrics.ShedMsgs + first.RcvMetrics.LostMsgs + first.RcvMetrics.PartialMsgs)
	if lostU > explained {
		res.fail("%d unmarked frames lost, the engine accounts for %d", lostU, explained)
		failed += int64(lostU - explained)
	}
	res.Attempted = int64(first.Frames)
	res.Failed = failed

	if o.trace {
		rec := newSpanRec("sim")
		tr := &rtoTracer{}
		traced := simRun(o.seed, rec, tr)
		if !first.same(traced) {
			res.fail("the traced run of seed %d differs from the untraced one", o.seed)
		}
		ns, err := ledger(res, o.workload, o.seed)
		if err != nil {
			return nil, err
		}
		simLayers(res, runs, traced, rec, tr, ns)
		if err := writeSpans(filepath.Join(o.out, fmt.Sprintf("spans-%s-%d-sim.jsonl", o.workload, o.seed)), rec); err != nil {
			return nil, err
		}
		return res, nil
	}
	lat := append([]float64(nil), first.Lat...)
	sort.Float64s(lat)
	delivered := first.MarkedGot + first.UnmarkedGot
	res.set("setup_s", "s", median(setups))
	res.named("frames_per_s", "1/s", float64(delivered)/simDuration.Seconds())
	res.named("p50_ms", "ms", quantile(lat, 0.5)/1e6)
	res.named("p90_ms", "ms", quantile(lat, 0.9)/1e6)
	res.named("p99_ms", "ms", quantile(lat, 0.99)/1e6)
	res.named("cpu_us_per_op", "us", median(cpus))
	res.set("allocs_per_op", "count", median(allocs))
	peak := peakRSSMB()
	if rss[0] > 0 {
		peak = median(rss) // per simulation; the process-lifetime peak depends on GC timing
	}
	res.set("peak_rss_mb", "MB", peak)
	res.set("ok_ratio", "ratio", 1-ratio(float64(failed), float64(res.Attempted)))
	res.set("delivery_ratio", "ratio", ratio(float64(delivered), float64(first.Frames)))
	res.named("goodput_mbps", "Mb/s", float64(first.PayloadBytes)*8/1e6/first.End.Seconds())
	res.named("unmarked_lost", "count", float64(lostU))
	res.named("unmarked_engine_accounted", "count", float64(explained))
	res.named("unmarked_unexplained_lost", "count", float64(max(lostU-explained, 0)))
	res.named("unmarked_delivery_ratio", "ratio", ratio(float64(first.UnmarkedGot), float64(first.UnmarkedSent)))
	res.named("marked_latency_samples", "count", float64(len(lat)))
	res.named("p999_ms", "ms", quantile(lat, 0.999)/1e6)
	res.named("fail_ratio", "ratio", ratio(float64(failed), float64(res.Attempted)))
	res.named("sim_runs", "count", float64(len(runs)))
	return res, nil
}
