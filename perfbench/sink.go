package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	iqrudp "github.com/cercs/iqrudp"
	"github.com/cercs/iqrudp/internal/hist"
	"github.com/cercs/iqrudp/internal/serve"
	"github.com/cercs/iqrudp/internal/trace"
)

// The sink is the process under test: a serve engine on loopback that
// accepts the generator's connections, validates every delivered message
// and answers line commands on stdin with one JSON line on stdout:
//
//	listen   close the current engine (if any), start a fresh one and reply
//	         with its address and how long serve.Listen took
//	step N   per-slot counts and latency quantiles of load phase N (frees its samples)
//	totals   whole-run validation, engine stats and resource usage
//	await N  reply once N set-up probes have been delivered (10 s limit)
//	quit     close the engine and exit
//
// One process hosts the engines of every set-up trial in turn, so only the
// first trial pays for a cold process.
const churnMsgs = 16

// slotState is one generator slot's view (wire-small keeps one connection
// per slot for the whole run). Guarded by mu: written by the slot's
// connection goroutine, read by the command loop.
type slotState struct {
	mu       sync.Mutex
	last     int64 // highest seq seen, -1 before the first
	marked   [256]uint64
	unmarked [256]uint64
	lat      [256]*latHist
	disorder [256]uint64 // seq not above the previous one: duplicate or reordering
	// conn is the slot's live connection; lost and dropped hold the
	// engine's own loss counts (receiver LostMsgs, DroppedDeliveries) of
	// the slot's connections that have ended.
	conn    *iqrudp.Conn
	lost    uint64
	dropped uint64
}

// engineLoss is the slot's engine-reported message loss so far.
func (st *slotState) engineLoss() (lost, dropped uint64) {
	lost, dropped = st.lost, st.dropped
	if st.conn != nil {
		lost += st.conn.Metrics().LostMsgs
		dropped += st.conn.DroppedDeliveries()
	}
	return lost, dropped
}

type sink struct {
	srv      *serve.Server
	counters *trace.Counters
	traced   bool

	mu        sync.Mutex
	slots     map[uint8]*slotState
	badSum    uint64
	partial   uint64
	cyclesOK  uint64
	cyclesBad uint64
	acceptLat []float64 // ns from the client's dial start to Accept's return
	recs      []*spanRec
	conns     map[*iqrudp.Conn]bool // accepted connections not yet drained
	dropDone  uint64                // overruns of drained connections
	wg        sync.WaitGroup

	probes     atomic.Int64       // set-up probe messages delivered
	probeSeen  chan struct{}      // signalled after each probe
	stepCPU    [256]atomic.Int64  // CPU ns at each step's first message
	stepAllocs [256]atomic.Uint64 // heap objects allocated by then
	recvWait   atomic.Int64       // ns blocked in Recv (traced runs)
	recvCalls  atomic.Int64
}

type stepReport struct {
	Step     int      `json:"step"`
	Marked   []uint64 `json:"marked"`
	Unmarked []uint64 `json:"unmarked"`
	Disorder uint64   `json:"disorder"`
	LatN     int      `json:"lat_n"`
	P50      float64  `json:"p50_ns"`
	P90      float64  `json:"p90_ns"`
	P99      float64  `json:"p99_ns"`
	P999     float64  `json:"p999_ns"`
	CPUNs    int64    `json:"cpu_ns"`
	Allocs   uint64   `json:"allocs"`
	RSSMB    float64  `json:"rss_mb"`
}

type totalsReport struct {
	Marked        []uint64           `json:"marked"`
	Unmarked      []uint64           `json:"unmarked"`
	Lost          []uint64           `json:"lost"`         // per slot: receiver machines' LostMsgs
	SlotDropped   []uint64           `json:"slot_dropped"` // per slot: DroppedDeliveries
	StepMarked    map[int][]uint64   `json:"step_marked"`
	Disorder      uint64             `json:"disorder"`
	Dropped       uint64             `json:"dropped"`
	BadSum        uint64             `json:"bad_checksum"`
	Partial       uint64             `json:"partial"`
	CyclesOK      uint64             `json:"cycles_ok"`
	CyclesBad     uint64             `json:"cycles_bad"`
	AcceptNs      float64            `json:"accept_ns"`
	Conns         int                `json:"conns"`
	Stats         serve.Stats        `json:"stats"`
	Gauges        map[string]float64 `json:"gauges"`
	DispatchP99   float64            `json:"dispatch_p99_ns"`
	WheelLateP99  float64            `json:"wheel_late_p99_ns"`
	HistRecords   uint64             `json:"hist_records"`
	TraceEvents   uint64             `json:"trace_events"`
	FlightRecords uint64             `json:"flight_records"`
	RecvWaitNs    float64            `json:"recv_wait_ns"`
	StepCPU       []int64            `json:"step_cpu_ns"`
	StepAllocs    []uint64           `json:"step_allocs"`
	CPUNs         int64              `json:"cpu_ns"`
	Allocs        uint64             `json:"allocs"`
	RSSMB         float64            `json:"rss_mb"`
}

// listenSink starts a fresh engine and its accept loop; the returned
// channel closes when the accept loop has ended.
func listenSink(cfg iqrudp.Config, validate, traced bool) (*sink, chan struct{}, error) {
	s := &sink{slots: map[uint8]*slotState{}, conns: map[*iqrudp.Conn]bool{}, traced: traced,
		probeSeen: make(chan struct{}, 1)}
	if traced {
		s.counters = trace.NewCounters()
		cfg.Tracer = s.counters
	}
	srv, err := serve.Listen("127.0.0.1:0", cfg, serve.Options{AlwaysValidate: validate})
	if err != nil {
		return nil, nil, err
	}
	s.srv = srv
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		s.acceptLoop()
	}()
	return s, acceptDone, nil
}

func runSink(tol float64, validate, traced bool) error {
	cfg := iqrudp.ServerConfig(tol)
	var (
		s          *sink
		acceptDone chan struct{}
	)
	// stop closes the current engine and waits for its goroutines.
	stop := func() error {
		if s == nil {
			return nil
		}
		err := s.srv.Close()
		<-acceptDone
		s.wg.Wait()
		return err
	}
	defer stop()
	out := bufio.NewWriter(os.Stdout)
	reply := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		out.Write(b)
		out.WriteByte('\n')
		return out.Flush()
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		f := strings.Fields(in.Text())
		if len(f) == 0 {
			continue
		}
		if s == nil && f[0] != "listen" && f[0] != "quit" {
			return fmt.Errorf("%q before listen", f[0])
		}
		var err error
		switch f[0] {
		case "listen":
			err = stop()
			s = nil
			if err != nil {
				return err
			}
			t0 := time.Now()
			s, acceptDone, err = listenSink(cfg, validate, traced)
			if err != nil {
				return err
			}
			err = reply(map[string]any{"addr": s.srv.Addr().String(), "listen_ns": time.Since(t0).Nanoseconds()})
		case "step":
			n, aerr := strconv.Atoi(f[len(f)-1])
			if aerr != nil || n < 0 || n > 255 {
				return fmt.Errorf("bad step %q", in.Text())
			}
			err = reply(s.stepReport(n))
		case "totals":
			err = reply(s.totals())
		case "await":
			n, aerr := strconv.Atoi(f[len(f)-1])
			if aerr != nil {
				return fmt.Errorf("bad await %q", in.Text())
			}
			err = reply(map[string]int64{"probes": s.awaitProbes(int64(n), 10*time.Second)})
		case "quit":
			cerr := stop()
			if s != nil && s.traced && len(f) > 1 {
				if werr := writeSpans(f[1], s.recs...); werr != nil {
					fmt.Fprintln(os.Stderr, "sink: spans:", werr)
				}
			}
			s = nil
			return cerr
		default:
			err = fmt.Errorf("unknown command %q", f[0])
		}
		if err != nil {
			return err
		}
	}
	// Driver went away: stop serving.
	return in.Err()
}

func (s *sink) acceptLoop() {
	var rec *spanRec
	if s.traced {
		rec = newSpanRec("sink.accept")
		s.mu.Lock()
		s.recs = append(s.recs, rec)
		s.mu.Unlock()
	}
	for op := uint64(0); ; op++ {
		rec.begin("serve.Server.Accept", op)
		c, err := s.srv.Accept(0)
		rec.end()
		if err != nil {
			return
		}
		accepted := time.Now().UnixNano()
		s.mu.Lock()
		s.conns[c] = true
		s.mu.Unlock()
		var crec *spanRec
		if s.traced {
			crec = newSpanRec("sink.conn")
			s.mu.Lock()
			s.recs = append(s.recs, crec)
			s.mu.Unlock()
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(c, accepted, crec)
		}()
	}
}

// awaitProbes blocks until n set-up probes have been delivered or limit has
// passed, and returns the number delivered.
func (s *sink) awaitProbes(n int64, limit time.Duration) int64 {
	timeout := time.After(limit)
	for s.probes.Load() < n {
		select {
		case <-s.probeSeen:
		case <-timeout:
			return s.probes.Load()
		}
	}
	return s.probes.Load()
}

func (s *sink) slot(id uint8) *slotState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.slots[id]
	if st == nil {
		st = &slotState{last: -1}
		s.slots[id] = st
	}
	return st
}

// serveConn drains one accepted connection, validating each message.
// A churn connection (messages flagged churn, seq from 0 on each
// connection) must deliver exactly churnMsgs marked messages in order.
func (s *sink) serveConn(c *iqrudp.Conn, accepted int64, rec *spanRec) {
	var (
		st      *slotState
		got     int
		churn   = false
		valid   = true
		first   = true
		badSum  uint64
		partial uint64
	)
	for op := uint64(0); ; op++ {
		var t0 time.Time
		if rec != nil {
			t0 = time.Now()
		}
		// No timeout: a Recv deadline arms a fresh timer per call, which
		// would add the harness's own allocations to every message.
		rec.begin("udpwire.Conn.Recv", op)
		msg, err := c.Recv(0)
		rec.end()
		if rec != nil {
			s.recvWait.Add(int64(time.Since(t0)))
			s.recvCalls.Add(1)
		}
		if err != nil {
			break // closed, queue drained
		}
		now := time.Now().UnixNano()
		if msg.Partial {
			partial++
			continue
		}
		h, err := parseMsg(msg.Data)
		if err != nil || h.marked != msg.Marked {
			badSum++
			valid = false
			continue
		}
		s.stampStep(h.step)
		if first && (h.churn || h.step == stepProbe) {
			// A connection's first message (a churn message or the set-up
			// probe) is due at the client's dial start: it dates the accept.
			s.mu.Lock()
			s.acceptLat = append(s.acceptLat, float64(accepted-h.due))
			s.mu.Unlock()
		}
		first = false
		if h.step == stepProbe && !h.churn {
			s.probes.Add(1)
			select {
			case s.probeSeen <- struct{}{}:
			default:
			}
		}
		if h.churn {
			// Churn: seq numbers restart per connection.
			churn = true
			if h.seq != uint64(got) || !h.marked {
				valid = false
			}
			got++
			continue
		}
		if st == nil {
			st = s.slot(h.slot)
			st.mu.Lock()
			st.conn = c
			st.mu.Unlock()
		}
		st.mu.Lock()
		if int64(h.seq) <= st.last {
			st.disorder[h.step]++
		}
		st.last = int64(h.seq)
		if h.marked {
			st.marked[h.step]++
		} else {
			st.unmarked[h.step]++
		}
		if st.lat[h.step] == nil {
			st.lat[h.step] = &latHist{}
		}
		st.lat[h.step].add(now - h.due)
		st.mu.Unlock()
	}
	c.Close()
	if st != nil {
		st.mu.Lock()
		st.lost += c.Metrics().LostMsgs
		st.dropped += c.DroppedDeliveries()
		st.conn = nil
		st.mu.Unlock()
	}
	s.mu.Lock()
	delete(s.conns, c)
	s.dropDone += c.DroppedDeliveries()
	s.badSum += badSum
	s.partial += partial
	if churn {
		if valid && got == churnMsgs {
			s.cyclesOK++
		} else {
			s.cyclesBad++
		}
	}
	s.mu.Unlock()
}

// stampStep records the sink's CPU time and allocation count when the first
// message of a step arrives, so each window's cost is the difference to the
// next's.
func (s *sink) stampStep(step uint8) {
	if s.stepCPU[step].Load() == 0 && s.stepCPU[step].CompareAndSwap(0, int64(cpuTime())) {
		s.stepAllocs[step].Store(allocObjects())
	}
}

func (s *sink) sortedSlots() []*slotState {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]int, 0, len(s.slots))
	for id := range s.slots {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	out := make([]*slotState, 0, len(ids))
	for _, id := range ids {
		for len(out) < id {
			out = append(out, nil) // keep slot index == position
		}
		out = append(out, s.slots[uint8(id)])
	}
	return out
}

func (s *sink) stepReport(step int) stepReport {
	r := stepReport{Step: step}
	var lat latHist
	for _, st := range s.sortedSlots() {
		if st == nil {
			r.Marked = append(r.Marked, 0)
			r.Unmarked = append(r.Unmarked, 0)
			continue
		}
		st.mu.Lock()
		r.Marked = append(r.Marked, st.marked[step])
		r.Unmarked = append(r.Unmarked, st.unmarked[step])
		r.Disorder += st.disorder[step]
		if st.lat[step] != nil {
			lat.merge(st.lat[step])
		}
		st.lat[step] = nil
		st.mu.Unlock()
	}
	r.LatN = int(lat.n)
	r.P50, r.P90, r.P99, r.P999 = lat.quantile(0.5), lat.quantile(0.9), lat.quantile(0.99), lat.quantile(0.999)
	r.CPUNs = int64(cpuTime())
	r.Allocs = allocObjects()
	r.RSSMB = peakRSSMB()
	return r
}

// dropped sums the application-queue overruns of every accepted connection.
func (s *sink) dropped() uint64 {
	s.mu.Lock()
	conns := make([]*iqrudp.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	n := s.dropDone
	s.mu.Unlock()
	for _, c := range conns {
		n += c.DroppedDeliveries()
	}
	return n
}

func (s *sink) totals() totalsReport {
	r := totalsReport{StepMarked: map[int][]uint64{}}
	slots := s.sortedSlots()
	for slot, st := range slots {
		var m, u, lost, dropped uint64
		if st != nil {
			st.mu.Lock()
			lost, dropped = st.engineLoss()
			for i := range st.marked {
				m += st.marked[i]
				u += st.unmarked[i]
				if st.marked[i] > 0 {
					if r.StepMarked[i] == nil {
						r.StepMarked[i] = make([]uint64, len(slots))
					}
					r.StepMarked[i][slot] = st.marked[i]
				}
			}
			for _, d := range st.disorder {
				r.Disorder += d
			}
			st.mu.Unlock()
		}
		r.Marked = append(r.Marked, m)
		r.Unmarked = append(r.Unmarked, u)
		r.Lost = append(r.Lost, lost)
		r.SlotDropped = append(r.SlotDropped, dropped)
	}
	s.mu.Lock()
	r.BadSum, r.Partial = s.badSum, s.partial
	r.CyclesOK, r.CyclesBad = s.cyclesOK, s.cyclesBad
	if len(s.acceptLat) > 0 {
		r.AcceptNs = median(s.acceptLat)
	}
	s.mu.Unlock()
	r.Dropped = s.dropped()
	r.Conns = s.srv.Conns()
	r.Stats = s.srv.Stats()
	r.Gauges = map[string]float64{}
	for name, fn := range s.srv.Gauges() {
		if !strings.HasPrefix(name, "serve.shard") {
			r.Gauges[name] = fn()
		}
	}
	for _, snap := range s.srv.HistSnapshots() {
		r.HistRecords += snap.Count
		switch snap.Name {
		case hist.MetricDispatch:
			r.DispatchP99 = snap.Quantile(0.99)
		case hist.MetricWheelLateness:
			r.WheelLateP99 = snap.Quantile(0.99)
		}
	}
	_, r.FlightRecords = s.srv.FlightRecords()
	if s.counters != nil {
		r.TraceEvents = s.counters.Total()
	}
	if n := s.recvCalls.Load(); n > 0 {
		r.RecvWaitNs = float64(s.recvWait.Load()) / float64(n)
	}
	r.StepCPU = make([]int64, len(s.stepCPU))
	r.StepAllocs = make([]uint64, len(s.stepAllocs))
	for i := range s.stepCPU {
		r.StepCPU[i] = s.stepCPU[i].Load()
		r.StepAllocs[i] = s.stepAllocs[i].Load()
	}
	r.CPUNs = int64(cpuTime())
	r.Allocs = allocObjects()
	r.RSSMB = peakRSSMB()
	return r
}
