package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"time"

	iqrudp "github.com/cercs/iqrudp"
)

// churn-validate: churnClients closed-loop clients; each cycle dials (the
// sink runs AlwaysValidate, so every handshake takes the RETRY + cookie
// path), sends churnMsgs marked messages, and closes gracefully.
const (
	churnClients = 2
	churnSize    = 64
	// churnTraceShare is each traced-mode pass's share of --seconds.
	churnTraceShare = 0.3
	// churnWindows splits the run into time windows for the best-window figures.
	churnWindows = 60
)

type churnClient struct {
	rng       *rand.Rand
	rec       *spanRec
	rtx       *rtoTracer // traced runs: the client machines' retransmissions
	metrics   iqrudp.Metrics
	dials     []float64 // ns per successful DialTimeout
	dialAt    []time.Time
	closes    []float64 // ns per Close
	cycles    int
	dialErrs  int
	sendErrs  int
	closeErrs int
}

// cycle runs one dial, send, close cycle. Its messages carry the time
// window the dial started in, so the sink can stamp each window's CPU.
func (c *churnClient) cycle(addr string, slot int, start time.Time, win time.Duration) {
	t0 := time.Now()
	w := uint8(min(int(t0.Sub(start)/win), churnWindows))
	c.rec.begin("udpwire.Dial", uint64(c.cycles))
	cfg := iqrudp.DefaultConfig()
	if c.rtx != nil {
		cfg.Tracer = c.rtx
	}
	conn, err := iqrudp.DialTimeout(addr, cfg, 5*time.Second)
	c.rec.end()
	if err != nil {
		c.dialErrs++
		return
	}
	c.dials = append(c.dials, float64(time.Since(t0)))
	c.dialAt = append(c.dialAt, t0)
	for i := 0; i < churnMsgs; i++ {
		b := make([]byte, churnSize) // the transport keeps it until acknowledged
		fillMsg(b, msgHeader{slot: uint8(slot), step: w, churn: true, marked: true, seq: uint64(i), due: t0.UnixNano()}, c.rng)
		c.rec.begin("udpwire.Conn.Send", uint64(c.cycles))
		err := conn.Send(b, true)
		c.rec.end()
		if err != nil {
			c.sendErrs++
		}
	}
	t1 := time.Now()
	c.rec.begin("udpwire.Conn.Close", uint64(c.cycles))
	err = conn.Close()
	c.rec.end()
	c.closes = append(c.closes, float64(time.Since(t1)))
	if err != nil {
		c.closeErrs++
	}
	m := conn.Metrics()
	c.metrics.SentPackets += m.SentPackets
	c.metrics.Retransmits += m.Retransmits
	c.metrics.TxErrors += m.TxErrors
	c.cycles++
}

// churnOut is one churn pass.
type churnOut struct {
	clients       []*churnClient
	start         time.Time
	before, tot   totalsReport
	dials, closes []float64 // sorted ns
	cycles        int
	elapsed       time.Duration
	cpuPerOp      float64
}

// churnPass opens a sink, churns for dur and validates the run into res.
func churnPass(o options, res *result, traced bool, dur time.Duration) (*churnOut, error) {
	out := &churnOut{}
	sp, conns, err := openSink(newWireGen(make([]*iqrudp.Conn, churnClients), o.seed, nil), 0, true, traced)
	if err != nil {
		return nil, err
	}
	closeAll(conns, nil)
	defer func() {
		if sp != nil {
			sp.kill()
		}
	}()
	if err := waitConnsZero(sp, &out.before); err != nil {
		return nil, err
	}

	out.clients = make([]*churnClient, churnClients)
	var wg sync.WaitGroup
	start := time.Now()
	out.start = start
	end := start.Add(dur)
	for i := range out.clients {
		cl := &churnClient{rng: rand.New(rand.NewSource(o.seed*31 + int64(i)))}
		if traced {
			cl.rec = newSpanRec(fmt.Sprintf("client%d", i))
			cl.rtx = &rtoTracer{}
		}
		out.clients[i] = cl
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for time.Now().Before(end) {
				cl.cycle(sp.addr, slot, start, dur/churnWindows)
			}
		}(i)
	}
	wg.Wait()
	out.elapsed = time.Since(start)

	if err := waitConnsZero(sp, &out.tot); err != nil {
		res.fail("%v", err)
	}
	dialErrs, sendErrs, closeErrs := 0, 0, 0
	for _, cl := range out.clients {
		out.dials = append(out.dials, cl.dials...)
		out.closes = append(out.closes, cl.closes...)
		out.cycles += cl.cycles
		dialErrs += cl.dialErrs
		sendErrs += cl.sendErrs
		closeErrs += cl.closeErrs
	}
	// Every cycle's connection must have delivered its messages exactly
	// once, in order, before the sink saw it close.
	deadline := time.Now().Add(5 * time.Second)
	for int(out.tot.CyclesOK+out.tot.CyclesBad) < out.cycles && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		if err := sp.call(&out.tot, "totals"); err != nil {
			return nil, err
		}
	}
	failed := int64(dialErrs + sendErrs + closeErrs + int(out.tot.CyclesBad))
	if missing := out.cycles - int(out.tot.CyclesOK+out.tot.CyclesBad); missing > 0 {
		failed += int64(missing)
		res.fail("%d connection cycles never reached the sink", missing)
	}
	if failed > 0 {
		res.fail("%d dial, %d send, %d close errors, %d cycles delivered wrongly", dialErrs, sendErrs, closeErrs, out.tot.CyclesBad)
	}
	if out.tot.BadSum > 0 || out.tot.Partial > 0 {
		res.fail("%d corrupt, %d partial messages", out.tot.BadSum, out.tot.Partial)
		failed += int64(out.tot.BadSum + out.tot.Partial)
	}
	res.Attempted = int64(out.cycles + dialErrs)
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no connection cycle completed")
	}
	res.Failed = failed
	sort.Float64s(out.dials)
	sort.Float64s(out.closes)
	out.cpuPerOp = float64(out.tot.CPUNs-out.before.CPUNs) / 1e3 / float64(out.cycles)

	spanPath := ""
	if traced {
		recs := make([]*spanRec, len(out.clients))
		for i, cl := range out.clients {
			recs[i] = cl.rec
		}
		if err := writeSpans(filepath.Join(o.out, fmt.Sprintf("spans-%s-%d-gen.jsonl", o.workload, o.seed)), recs...); err != nil {
			return nil, err
		}
		spanPath = filepath.Join(o.out, fmt.Sprintf("spans-%s-%d-sink.jsonl", o.workload, o.seed))
	}
	err = sp.quit(spanPath)
	sp = nil
	return out, err
}

func runChurn(o options) (*result, error) {
	res := newResult()
	if o.trace {
		dur := time.Duration(float64(time.Duration(o.seconds)*time.Second) * churnTraceShare)
		plain, err := churnPass(o, newResult(), false, dur)
		if err != nil {
			return nil, err
		}
		traced, err := churnPass(o, res, true, dur)
		if err != nil {
			return nil, err
		}
		ns, err := ledger(res, o.workload, o.seed)
		if err != nil {
			return nil, err
		}
		churnLayers(res, plain, traced, ns)
		return res, nil
	}
	setups, err := timeSetups(setupTrials, func() *wireGen {
		return newWireGen(make([]*iqrudp.Conn, churnClients), o.seed, nil)
	}, 0, true)
	if err != nil {
		return nil, err
	}
	out, err := churnPass(o, res, false, time.Duration(o.seconds)*time.Second)
	if err != nil {
		return nil, err
	}
	failed := float64(res.Failed)
	rate := float64(out.cycles) / out.elapsed.Seconds()
	// Host noise (CPU steal on a shared VM) only slows the system, so the
	// reported handshake latency comes from the quieter time windows. CPU per
	// cycle is the median window's: noise can move it either way. Whole-run
	// figures are printed.
	win := out.elapsed / churnWindows
	ws := make([][]float64, churnWindows)
	for _, cl := range out.clients {
		for i, at := range cl.dialAt {
			if w := int(at.Sub(out.start) / win); w >= 0 && w < churnWindows {
				ws[w] = append(ws[w], cl.dials[i])
			}
		}
	}
	var rates, w50, w90, wcpu []float64
	for w, dials := range ws {
		if len(dials) == 0 {
			continue
		}
		sort.Float64s(dials)
		rates = append(rates, -float64(len(dials))/win.Seconds())
		w50, w90 = append(w50, quantile(dials, 0.5)), append(w90, quantile(dials, 0.9))
		if c0, c1 := out.tot.StepCPU[w], out.tot.StepCPU[w+1]; w+1 < churnWindows && c0 > 0 && c1 > c0 {
			wcpu = append(wcpu, float64(c1-c0)/1e3/float64(len(dials)))
		}
	}
	cpu := out.cpuPerOp
	if len(wcpu) > 0 {
		cpu = median(wcpu)
	}
	res.set("setup_s", "s", median(setups))
	res.named("p50_ms", "ms", quietWindow(w50)/1e6)
	res.named("p90_ms", "ms", quietWindow(w90)/1e6)
	res.named("conns_per_s_quiet_window", "1/s", -quietWindow(rates))
	res.named("p50_ms_whole_run", "ms", quantile(out.dials, 0.5)/1e6)
	res.named("p90_ms_whole_run", "ms", quantile(out.dials, 0.9)/1e6)
	res.named("cpu_us_per_op", "us", cpu)
	res.set("allocs_per_op", "count", float64(out.tot.Allocs-out.before.Allocs)/float64(out.cycles))
	res.named("cpu_us_per_op_whole_run", "us", out.cpuPerOp)
	res.set("peak_rss_mb", "MB", out.tot.RSSMB)
	res.set("ok_ratio", "ratio", 1-ratio(failed, float64(res.Attempted)))
	res.set("delivery_ratio", "ratio", ratio(float64(out.tot.CyclesOK), float64(out.cycles)))
	res.named("conns_per_s", "1/s", rate)
	res.named("handshake_p50_ms", "ms", quantile(out.dials, 0.5)/1e6)
	res.named("handshake_p99_ms", "ms", quantile(out.dials, 0.99)/1e6)
	res.named("p99_ms", "ms", quantile(out.dials, 0.99)/1e6)
	res.named("handshake_samples", "count", float64(len(out.dials)))
	res.named("fail_ratio", "ratio", ratio(failed, float64(res.Attempted)))
	return res, nil
}
