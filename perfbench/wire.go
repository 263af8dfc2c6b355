package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	iqrudp "github.com/cercs/iqrudp"
)

// wire-small: open-loop 64 B messages over wireConns loopback connections.
const (
	wireSize     = 64
	wireConns    = 2
	wireUnmarked = 0.2 // share of messages sent unmarked
	wireTol      = 0.3 // sink loss tolerance
	// wireLatLimit is the p99 delivery-latency limit behind the knee.
	wireLatLimit = 20 * time.Millisecond
	// wireRefRate is the fixed offered rate (msgs/s, all connections) at
	// which p50/p99 latency and CPU per message are reported.
	wireRefRate = 20000
	// wireStepShare is each ladder step's share of --seconds.
	wireStepShare = 0.035
	// wireRefShare is the reference phase's share of --seconds.
	wireRefShare = 0.25
	// wireStressRate is the traced run's near-knee rate, where the send
	// backlog is sampled.
	wireStressRate = 40000
	// wireTraceShare is each traced-mode pass's share of --seconds.
	wireTraceShare = 0.3
	// wireBacklogLimit bounds the send backlog (packets per connection)
	// sampled over a step's last quarter; above it the backlog is growing.
	wireBacklogLimit = 64
	// setupTrials set-ups are timed after setupWarm untimed ones.
	setupTrials = 200
	setupWarm   = 20

	// Step tags: warm-up, the reference windows, then the ladder's.
	stepWarm   = 0
	stepRef    = 1
	stepLadder = 1 + 2*wireRefWindows
	stepProbe  = 253

	wireRefWindows  = 24
	wireStepWindows = 3
	// wireWalks bounds the knee walks per run; the best is reported.
	wireWalks = 2
)

// wireLadder is the fixed ladder of offered rates (msgs/s, all
// connections) walked upward until a step misses the knee criteria.
var wireLadder = []float64{
	30000, 33000, 36000, 40000, 44000, 48000, 53000, 58000, 64000, 70000,
	77000, 85000, 94000, 103000, 113000, 125000, 140000,
}

// wireGen is the single-goroutine open-loop generator.
type wireGen struct {
	conns    []*iqrudp.Conn
	seq      []uint64
	marked   []uint64 // marked messages sent, per slot
	unmarked []uint64
	stepMk   map[uint8][]uint64
	rng      *rand.Rand
	buf      []byte
	rec      *spanRec
	op       uint64
	sendErrs int64
	backlog  []float64  // every backlog sample, all steps (per-layer max)
	rtx      *rtoTracer // traced runs: counts the connections' retransmissions
}

type genStep struct {
	offered    int
	late       []float64 // ns each message was sent after its due time
	backlogEnd float64   // mean sampled backlog over the step's last quarter
}

func newWireGen(conns []*iqrudp.Conn, seed int64, rec *spanRec) *wireGen {
	return &wireGen{
		conns:    conns,
		seq:      make([]uint64, len(conns)),
		marked:   make([]uint64, len(conns)),
		unmarked: make([]uint64, len(conns)),
		stepMk:   map[uint8][]uint64{},
		rng:      rand.New(rand.NewSource(seed)),
		rec:      rec,
	}
}

// send emits one message on slot due at dueWall (Unix ns).
func (g *wireGen) send(slot int, step uint8, marked bool, dueWall int64) {
	h := msgHeader{slot: uint8(slot), step: step, marked: marked, seq: g.seq[slot], due: dueWall}
	g.seq[slot]++
	// The transport keeps the slice until the message is acknowledged, so
	// every message gets its own bytes, carved from a slab.
	if len(g.buf) < wireSize {
		g.buf = make([]byte, 1<<16)
	}
	b := g.buf[:wireSize:wireSize]
	g.buf = g.buf[wireSize:]
	fillMsg(b, h, g.rng)
	g.rec.begin("udpwire.Conn.Send", g.op)
	err := g.conns[slot].Send(b, marked)
	g.rec.end()
	g.op++
	if err != nil {
		g.sendErrs++
		return
	}
	mk := g.stepMk[step]
	if mk == nil {
		mk = make([]uint64, len(g.conns))
		g.stepMk[step] = mk
	}
	if marked {
		g.marked[slot]++
		mk[slot]++
	} else {
		g.unmarked[slot]++
	}
}

// run offers rate msgs/s for dur on an absolute schedule: message i is due
// at start + i/rate. Each wake-up sends every overdue message in one burst,
// so a late wake-up costs latency (timed from the due time), never rate.
func (g *wireGen) run(step uint8, rate float64, dur time.Duration) genStep {
	n := int(rate * dur.Seconds())
	res := genStep{offered: n, late: make([]float64, 0, n)}
	start := time.Now()
	startWall := start.UnixNano()
	per := float64(time.Second) / rate
	var nextSample time.Duration
	var tailSum float64
	var tailN int
	tailFrom := time.Duration(float64(dur) * 0.75)
	for i := 0; i < n; {
		now := time.Since(start)
		due := time.Duration(float64(i) * per)
		if due > now {
			sleepPrecise(due - now)
			continue
		}
		g.rec.begin("gen.burst", uint64(i))
		for i < n {
			due = time.Duration(float64(i) * per)
			if due > now {
				break
			}
			marked := g.rng.Float64() >= wireUnmarked
			g.send(i%len(g.conns), step, marked, startWall+int64(due))
			res.late = append(res.late, float64(time.Since(start)-due))
			i++
		}
		g.rec.end()
		if now >= nextSample {
			nextSample = now + time.Millisecond
			for _, c := range g.conns {
				g.rec.begin("udpwire.Conn.QueuedPackets", 0)
				q := float64(c.QueuedPackets())
				g.rec.end()
				g.backlog = append(g.backlog, q)
				if now >= tailFrom {
					tailSum += q
					tailN++
				}
			}
		}
	}
	if tailN > 0 {
		res.backlogEnd = tailSum / float64(tailN)
	}
	return res
}

// drain waits until every connection's send backlog is empty.
func (g *wireGen) drain(limit time.Duration) {
	end := time.Now().Add(limit)
	for time.Now().Before(end) {
		q := 0
		for _, c := range g.conns {
			q += c.QueuedPackets()
		}
		if q == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// dialAll opens n connections to addr, returning each dial's start time.
func dialAll(addr string, n int, cfg iqrudp.Config, rec *spanRec) ([]*iqrudp.Conn, []int64, error) {
	conns := make([]*iqrudp.Conn, 0, n)
	starts := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		starts = append(starts, time.Now().UnixNano())
		rec.begin("udpwire.Dial", uint64(i))
		c, err := iqrudp.DialTimeout(addr, cfg, 5*time.Second)
		rec.end()
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, nil, fmt.Errorf("dial: %w", err)
		}
		conns = append(conns, c)
	}
	return conns, starts, nil
}

// setupSink has sp start a fresh engine, dials len(g.conns) connections,
// and waits for one marked probe per connection to be delivered. One set-up
// sample is the engine's Listen time plus the time from its listening to
// the last probe's delivery. The sink process outlives its engines, so the
// operating system's process start, which is not the engine's and varies
// far more than what follows, is left out.
func setupSink(g *wireGen, sp *sinkProc) ([]*iqrudp.Conn, time.Duration, error) {
	listen, err := sp.listen()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	n := len(g.conns)
	cfg := iqrudp.DefaultConfig()
	if g.rtx != nil {
		cfg.Tracer = g.rtx
	}
	conns, starts, err := dialAll(sp.addr, n, cfg, g.rec)
	if err != nil {
		return nil, 0, err
	}
	g.conns = conns
	// Each probe is due at its connection's dial start, so the sink can
	// date its Accept against the dial.
	for slot := range conns {
		g.send(slot, stepProbe, true, starts[slot])
	}
	var r struct{ Probes int }
	if err := sp.call(&r, "await %d", n); err != nil {
		return nil, 0, err
	}
	d := listen + time.Since(t0)
	if r.Probes < n {
		return nil, 0, fmt.Errorf("%d of %d probe messages delivered", r.Probes, n)
	}
	return conns, d, nil
}

// timeSetups starts one sink process and sets up setupWarm+n engines in it,
// each time with a fresh generator from newGen, and returns the last n
// set-up times. The first engines of a process start slower while it warms
// up; they are left out.
func timeSetups(n int, newGen func() *wireGen, tol float64, validate bool) ([]float64, error) {
	sp, err := startSink(tol, validate, false)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for t := 0; t < setupWarm+n; t++ {
		conns, d, err := setupSink(newGen(), sp)
		if err != nil {
			sp.kill()
			return nil, err
		}
		if t >= setupWarm {
			setups = append(setups, d.Seconds())
		}
		closeAll(conns, nil)
	}
	return setups, sp.quit("")
}

// openSink starts the sink process a measurement runs against, with g's
// connections up and each one's probe delivered.
func openSink(g *wireGen, tol float64, validate, traced bool) (*sinkProc, []*iqrudp.Conn, error) {
	sp, err := startSink(tol, validate, traced)
	if err != nil {
		return nil, nil, err
	}
	conns, _, err := setupSink(g, sp)
	if err != nil {
		sp.kill()
		return nil, nil, err
	}
	return sp, conns, nil
}

func closeAll(conns []*iqrudp.Conn, rec *spanRec) {
	for i, c := range conns {
		rec.begin("udpwire.Conn.Close", uint64(i))
		c.Close()
		rec.end()
	}
}

func runWireSmall(o options) (*result, error) {
	preciseThread() // the generator runs on this goroutine
	if o.trace {
		return traceWireSmall(o)
	}
	res := newResult()
	total := time.Duration(o.seconds) * time.Second

	// Set-up times come from engines in a sink process of their own; the
	// measurement runs against a fresh one.
	setups, err := timeSetups(setupTrials, func() *wireGen {
		return newWireGen(make([]*iqrudp.Conn, wireConns), o.seed, nil)
	}, wireTol, false)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", "s", median(setups))
	g := newWireGen(make([]*iqrudp.Conn, wireConns), o.seed, nil)
	sp, _, err := openSink(g, wireTol, false, false)
	if err != nil {
		return nil, err
	}
	defer func() {
		if sp != nil {
			sp.kill()
		}
	}()

	// Warm-up, then the reference rate in windows (see the quiet-window
	// note below). If the generator fell behind, the phase is run once more.
	g.run(stepWarm, wireRefRate, 500*time.Millisecond)
	refDur := time.Duration(float64(total) * wireRefShare)
	var before stepReport
	if err := sp.call(&before, "step %d", stepWarm); err != nil {
		return nil, err
	}
	var ref *windowed
	var genLate float64
	for attempt := 0; attempt < 2; attempt++ {
		if attempt > 0 {
			before = ref.reps[len(ref.reps)-1]
		}
		w, err := runWindows(g, sp, uint8(stepRef+attempt*wireRefWindows), wireRefRate, wireRefWindows, refDur/wireRefWindows)
		if err != nil {
			return nil, err
		}
		ref, genLate = w, quantile(w.late, 0.99)
		if genLate <= float64(wireLatLimit) {
			break
		}
		fmt.Printf("  reference phase: generator p99 lateness %.0f µs, repeating\n", genLate/1e3)
	}
	// A generator that falls behind makes the run's load invalid, not the
	// program's output wrong: it is reported, not failed.
	valid := 1.0
	if genLate > float64(wireLatLimit) {
		valid = 0
		fmt.Printf("  RUN INVALID: generator fell behind at the reference rate (p99 lateness %.0f µs)\n", genLate/1e3)
	}
	res.named("bench.run_valid", "bool", valid)
	last := ref.reps[len(ref.reps)-1]
	// Host noise (CPU steal on a shared VM) only ever slows the system, so
	// the latencies come from the quieter windows; medians are printed too.
	var w50, w90 []float64
	for _, r := range ref.reps {
		w50, w90 = append(w50, r.P50), append(w90, r.P90)
	}
	res.named("p50_ms", "ms", quietWindow(w50)/1e6)
	res.named("p90_ms", "ms", quietWindow(w90)/1e6)
	res.named("p50_ms_median_window", "ms", ref.p50/1e6)
	res.named("p90_ms_median_window", "ms", ref.p90/1e6)
	res.named("p99_ms", "ms", ref.p99/1e6)
	var stamps totalsReport
	if err := sp.call(&stamps, "totals"); err != nil {
		return nil, err
	}
	// Per-window cost: the sink stamps its CPU time and allocation count
	// when each window's first message arrives.
	var wcpu, wallocs []float64
	for i := 0; i+1 < len(ref.reps); i++ {
		s0, s1 := ref.reps[i].Step, ref.reps[i+1].Step
		c0, c1 := stamps.StepCPU[s0], stamps.StepCPU[s1]
		a0, a1 := stamps.StepAllocs[s0], stamps.StepAllocs[s1]
		if n := sum(ref.reps[i].Marked) + sum(ref.reps[i].Unmarked); c0 > 0 && c1 > c0 && a1 >= a0 && n > 0 {
			wcpu = append(wcpu, float64(c1-c0)/1e3/float64(n))
			wallocs = append(wallocs, float64(a1-a0)/float64(n))
		}
	}
	res.named("cpu_us_per_op", "us", median(wcpu))
	res.named("cpu_us_per_op_whole_phase", "us", ratio(float64(last.CPUNs-before.CPUNs)/1e3, float64(ref.delivered)))
	res.set("allocs_per_op", "count", median(wallocs))
	res.named("allocs_per_op_whole_phase", "count", ratio(float64(last.Allocs-before.Allocs), float64(ref.delivered)))
	res.set("peak_rss_mb", "MB", last.RSSMB)
	res.set("delivery_ratio", "ratio", ratio(float64(ref.delivered), float64(ref.offered)))
	res.named("p999_ms", "ms", ref.p999/1e6)
	res.named("latency_samples", "count", float64(ref.samples))
	res.named("ref_rate_msgs_per_s", "msg/s", wireRefRate)
	res.named("bench.gen_late_p99_us", "us", genLate/1e3)

	// Knee: climb the fixed ladder, several times while the budget lasts,
	// and report the best walk (noise only lowers a walk's knee).
	k := &kneeSearch{g: g, sp: sp, step: stepLadder, missed: map[uint8]bool{},
		probeDur: time.Duration(float64(total) * wireStepShare)}
	var knees []float64
	ladderEnd := time.Now().Add(total - refDur)
	var walkDur time.Duration
	for len(knees) < wireWalks && (len(knees) == 0 || time.Now().Add(walkDur).Before(ladderEnd)) {
		t := time.Now()
		knee, err := k.walk()
		if err != nil {
			return nil, err
		}
		walkDur = max(walkDur, time.Since(t))
		fmt.Printf("  walk %d: knee %.0f msg/s\n", len(knees)+1, knee)
		knees = append(knees, knee)
	}
	knee := 0.0
	for _, kn := range knees {
		knee = math.Max(knee, kn)
	}
	res.named("knee_median_walk", "msg/s", median(knees))
	if knee == 0 {
		fmt.Println("  no ladder rate met the knee criteria (the host was too slow for the lowest rung)")
	}
	missed := k.missed
	res.named("knee_msgs_per_s", "msg/s", knee)

	// Final drain, close, and whole-run validation.
	g.drain(5 * time.Second)
	var tot totalsReport
	if err := awaitSettled(g, sp, &tot); err != nil {
		return nil, err
	}
	wireCheck(res, g, tot, missed)
	res.set("ok_ratio", "ratio", 1-ratio(float64(res.Failed), float64(res.Attempted)))
	res.named("delivery_queue_drops", "count", float64(tot.Dropped))
	closeAll(g.conns, nil)
	if err := waitConnsZero(sp, &tot); err != nil {
		res.fail("%v", err)
	}
	err = sp.quit("")
	sp = nil
	if err != nil {
		return nil, err
	}
	return res, nil
}

// wirePassOut is one traced-mode pass at the reference rate.
type wirePassOut struct {
	g           *wireGen
	before, tot totalsReport
	delivered   uint64
	cpuPerOp    float64
	genLateP99  float64
}

// wirePass runs one sink at the reference rate for dur (plus, when traced,
// a short near-knee step so the send backlog is sampled under load) and
// validates the run into res.
func wirePass(o options, res *result, traced bool, dur time.Duration) (*wirePassOut, error) {
	var rec *spanRec
	if traced {
		rec = newSpanRec("generator")
	}
	g := newWireGen(make([]*iqrudp.Conn, wireConns), o.seed, rec)
	if traced {
		g.rtx = &rtoTracer{}
	}
	sp, _, err := openSink(g, wireTol, false, traced)
	if err != nil {
		return nil, err
	}
	defer func() {
		if sp != nil {
			sp.kill()
		}
	}()
	out := &wirePassOut{g: g}
	g.run(stepWarm, wireRefRate, 500*time.Millisecond)
	if err := sp.call(&out.before, "totals"); err != nil {
		return nil, err
	}
	ref := g.run(stepRef, wireRefRate, dur)
	g.drain(time.Second)
	time.Sleep(20 * time.Millisecond)
	var refEnd totalsReport
	if err := sp.call(&refEnd, "totals"); err != nil {
		return nil, err
	}
	out.delivered = sum(refEnd.Marked) + sum(refEnd.Unmarked) - sum(out.before.Marked) - sum(out.before.Unmarked)
	out.cpuPerOp = float64(refEnd.CPUNs-out.before.CPUNs) / 1e3 / float64(out.delivered)
	if traced {
		g.run(stepLadder, wireStressRate, dur/4)
	}
	g.drain(5 * time.Second)
	if err := awaitSettled(g, sp, &out.tot); err != nil {
		return nil, err
	}
	sort.Float64s(ref.late)
	out.genLateP99 = quantile(ref.late, 0.99)
	wireCheck(res, g, out.tot, nil)
	closeAll(g.conns, rec)
	var after totalsReport
	if err := waitConnsZero(sp, &after); err != nil {
		res.fail("%v", err)
	}
	spanPath := ""
	if traced {
		spanPath = filepath.Join(o.out, fmt.Sprintf("spans-%s-%d-sink.jsonl", o.workload, o.seed))
		if err := writeSpans(filepath.Join(o.out, fmt.Sprintf("spans-%s-%d-gen.jsonl", o.workload, o.seed)), rec); err != nil {
			return nil, err
		}
	}
	err = sp.quit(spanPath)
	sp = nil
	return out, err
}

// traceWireSmall is the traced run: an untraced and a traced pass at the
// reference rate (their CPU ratio is the tracing overhead), then the ledger.
func traceWireSmall(o options) (*result, error) {
	res := newResult()
	dur := time.Duration(float64(time.Duration(o.seconds)*time.Second) * wireTraceShare)
	plain, err := wirePass(o, newResult(), false, dur)
	if err != nil {
		return nil, err
	}
	traced, err := wirePass(o, res, true, dur)
	if err != nil {
		return nil, err
	}
	ns, err := ledger(res, o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	wireLayers(res, plain, traced, ns)
	return res, nil
}

// windowed is one offered rate run as consecutive windows.
type windowed struct {
	rate                float64
	p50, p90, p99, p999 float64 // medians across the windows
	samples             int
	reps                []stepReport
	late                []float64 // sorted generator lateness, ns
	offered             int
	delivered           uint64
	backlogEnd          float64 // the last window's tail backlog
	marked, sent        []uint64
}

// runWindows offers rate for n windows of dur each (steps first..first+n-1),
// drains, and collects the sink's per-window reports.
func runWindows(g *wireGen, sp *sinkProc, first uint8, rate float64, n int, dur time.Duration) (*windowed, error) {
	w := &windowed{rate: rate, marked: make([]uint64, len(g.conns)), sent: make([]uint64, len(g.conns))}
	for i := 0; i < n; i++ {
		gs := g.run(first+uint8(i), rate, dur)
		w.late = append(w.late, gs.late...)
		w.offered += gs.offered
		w.backlogEnd = gs.backlogEnd
	}
	sort.Float64s(w.late)
	g.drain(time.Second)
	time.Sleep(20 * time.Millisecond)
	var p50, p90, p99, p999 []float64
	for i := 0; i < n; i++ {
		step := first + uint8(i)
		var rep stepReport
		if err := sp.call(&rep, "step %d", step); err != nil {
			return nil, err
		}
		w.reps = append(w.reps, rep)
		p50, p90, p99, p999 = append(p50, rep.P50), append(p90, rep.P90), append(p99, rep.P99), append(p999, rep.P999)
		w.samples += rep.LatN
		w.delivered += sum(rep.Marked) + sum(rep.Unmarked)
		for slot := range g.conns {
			if slot < len(rep.Marked) {
				w.marked[slot] += rep.Marked[slot]
			}
			w.sent[slot] += g.stepMk[step][slot]
		}
	}
	w.p50, w.p90, w.p99, w.p999 = median(p50), median(p90), median(p99), median(p999)
	return w, nil
}

// kneeSearch finds the highest wireLadder rate that meets the knee
// criteria.
type kneeSearch struct {
	g        *wireGen
	sp       *sinkProc
	step     uint8
	missed   map[uint8]bool // steps of probes that missed (overload allowed)
	probeDur time.Duration
}

// probe offers one ladder rate; a miss is retried once, so a single host
// hiccup does not decide the walk.
func (k *kneeSearch) probe(rate float64) (*windowed, bool, error) {
	var w *windowed
	for attempt := 0; attempt < 2; attempt++ {
		if int(k.step)+wireStepWindows >= stepProbe {
			return nil, false, fmt.Errorf("knee search ran out of step tags")
		}
		first := k.step
		var err error
		w, err = runWindows(k.g, k.sp, first, rate, wireStepWindows, k.probeDur/wireStepWindows)
		if err != nil {
			return nil, false, err
		}
		k.step += wireStepWindows
		ok, why := kneeStepOK(k.g, w)
		fmt.Printf("  probe %8.0f msg/s  p50 %7.3f ms  p99 %8.3f ms  gen late p99 %7.3f ms  backlog %7.1f  %s\n",
			rate, w.p50/1e6, w.p99/1e6, quantile(w.late, 0.99)/1e6, w.backlogEnd, why)
		if ok {
			return w, true, nil
		}
		for s := first; s < k.step; s++ {
			k.missed[s] = true
		}
		// Let any backlog the overload built drain before the next probe.
		k.g.drain(2 * time.Second)
	}
	return w, false, nil
}

// walk climbs the ladder from its lowest rung until a rung misses (twice,
// see probe), so the engine is never pushed more than one rung past the
// knee. The knee is placed where p99 crosses the limit, interpolated
// log-linearly between the last passing and the first missing rung.
func (k *kneeSearch) walk() (float64, error) {
	var knee float64
	var loW *windowed
	for _, rate := range wireLadder {
		w, ok, err := k.probe(rate)
		if err != nil {
			return 0, err
		}
		if !ok {
			if loW != nil && w.p99 > float64(wireLatLimit) && loW.p99 > 0 {
				frac := math.Log(float64(wireLatLimit)/loW.p99) / math.Log(w.p99/loW.p99)
				knee += math.Max(0, math.Min(1, frac)) * (rate - knee)
			}
			break
		}
		knee, loW = rate, w
	}
	return knee, nil
}

// kneeStepOK applies the knee criteria to one ladder rate.
func kneeStepOK(g *wireGen, w *windowed) (bool, string) {
	for slot := range g.conns {
		if float64(w.marked[slot]) < 0.999*float64(w.sent[slot]) {
			return false, fmt.Sprintf("miss: slot %d delivered under 99.9%% of marked", slot)
		}
	}
	if w.p99 > float64(wireLatLimit) {
		return false, "miss: p99 over limit"
	}
	if w.backlogEnd > wireBacklogLimit {
		return false, "miss: send backlog growing"
	}
	return true, "ok"
}

// awaitSettled polls the sink's totals until every marked message sent has
// been delivered and every unmarked one is delivered or accounted lost, or
// 5 s have passed (overload may have dropped marked messages for good).
func awaitSettled(g *wireGen, sp *sinkProc, tot *totalsReport) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := sp.call(tot, "totals"); err != nil {
			return err
		}
		settled := sum(tot.Marked) >= sum(g.marked)
		for slot := range g.conns {
			if lost, explained := unmarkedLoss(g, *tot, slot); lost > explained {
				settled = false
			}
		}
		if settled || time.Now().After(deadline) {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// unmarkedLoss is slot's undelivered unmarked messages and the number the
// engine accounts for: discarded or shed by the sender, skipped by the
// receiver, or dropped from the sink's full delivery queue.
func unmarkedLoss(g *wireGen, tot totalsReport, slot int) (lost, explained int64) {
	lost = int64(g.unmarked[slot])
	if slot < len(tot.Unmarked) {
		lost -= int64(tot.Unmarked[slot])
	}
	m := g.conns[slot].Metrics()
	explained = int64(m.SenderDiscards + m.ShedMsgs)
	if slot < len(tot.Lost) {
		explained += int64(tot.Lost[slot] + tot.SlotDropped[slot])
	}
	return lost, explained
}

// wireCheck validates exactly-once in-order marked delivery and unmarked
// loss within tolerance, counting every failure against attempts. Each
// undelivered unmarked message must also be one the engine accounts for
// (see unmarkedLoss); any other loss is a failure. Marked
// messages the engine discarded in a ladder step that missed the knee are
// the overload the knee search provokes on purpose: they are reported as
// overload_marked_lost, not as failures. Reordering counts everywhere.
func wireCheck(res *result, g *wireGen, tot totalsReport, missed map[uint8]bool) {
	var sent, failed, overload, lostAll, explainedAll, unexplained int64
	for slot := range g.conns {
		for step, mk := range g.stepMk {
			var got uint64
			if byStep := tot.StepMarked[int(step)]; slot < len(byStep) {
				got = byStep[slot]
			}
			d := int64(mk[slot]) - int64(got)
			switch {
			case d != 0 && missed[step] && d > 0:
				overload += d
			case d != 0:
				res.fail("slot %d step %d: %d marked delivered, %d sent", slot, step, got, mk[slot])
				failed += absInt(d)
			}
		}
		allSent := int64(g.marked[slot] + g.unmarked[slot])
		sent += allSent
		lost, explained := unmarkedLoss(g, tot, slot)
		allowed := int64(wireTol * float64(allSent))
		if lost > allowed || lost < 0 {
			res.fail("slot %d: unmarked lost %d, tolerance allows %d", slot, lost, allowed)
			failed += absInt(lost - allowed)
		}
		if lost > explained {
			res.fail("slot %d: %d unmarked messages lost, the engine accounts for %d", slot, lost, explained)
			failed += lost - explained
			unexplained += lost - explained
		}
		lostAll += lost
		explainedAll += explained
	}
	res.named("unmarked_lost", "count", float64(lostAll))
	res.named("unmarked_engine_accounted", "count", float64(explainedAll))
	res.named("unmarked_unexplained_lost", "count", float64(unexplained))
	if tot.Disorder > 0 || tot.BadSum > 0 || tot.Partial > 0 {
		res.fail("%d out-of-order or duplicate, %d corrupt, %d partial messages", tot.Disorder, tot.BadSum, tot.Partial)
		failed += int64(tot.Disorder + tot.BadSum + tot.Partial)
	}
	if g.sendErrs > 0 {
		res.fail("%d send errors", g.sendErrs)
		failed += g.sendErrs
	}
	res.Attempted = sent + g.sendErrs
	res.Failed = failed
	res.named("fail_ratio", "ratio", ratio(float64(failed), float64(res.Attempted)))
	res.named("overload_marked_lost", "count", float64(overload))
}

// waitConnsZero polls the sink until its connection table is empty.
func waitConnsZero(sp *sinkProc, tot *totalsReport) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := sp.call(tot, "totals"); err != nil {
			return err
		}
		if tot.Conns == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sink still holds %d connections after close", tot.Conns)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func sum(xs []uint64) uint64 {
	var s uint64
	for _, x := range xs {
		s += x
	}
	return s
}

func absInt(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
