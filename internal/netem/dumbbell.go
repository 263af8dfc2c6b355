package netem

import (
	"time"

	"github.com/cercs/iqrudp/internal/sim"
)

// Dumbbell is the topology every experiment in the paper uses: a set of
// sources on the left, sinks on the right, and one shared bottleneck link in
// each direction. Access links are fast enough (1 Gb/s) that all queueing
// happens at the bottleneck, as on the Emulab setup.
//
//	src0 ─┐                       ┌─ dst0
//	src1 ─┤ L ══ bottleneck ══ R ├─ dst1
//	src2 ─┘                       └─ dst2
//
// The dumbbell owns a free list of frames (GetFrame). A pooled frame
// handed to Inject is reclaimed at the end of its journey: when a link
// drops it, when its destination is unknown, or when the destination
// handler returns from HandleFrame.
type Dumbbell struct {
	net  *Network
	fwd  *Link // left → right bottleneck
	rev  *Link // right → left bottleneck
	side map[Addr]int
	acc  map[Addr]*Link // per-host delivery link (router → host)
	up   map[Addr]*Link // per-host uplink (host → router)
	free []*Frame       // reclaimed pooled frames

	accessBW float64
}

// DumbbellConfig describes the shared bottleneck.
type DumbbellConfig struct {
	Bandwidth float64       // bottleneck bandwidth, bits/s (paper: 20e6)
	Delay     time.Duration // one-way propagation (paper: 15ms for 30ms RTT)
	QueueMax  int           // bottleneck queue limit in packets; 0 selects a BDP-sized default
	LossProb  float64       // optional random loss on the bottleneck
	AccessBW  float64       // access link bandwidth; 0 selects 1 Gb/s
}

// DefaultDumbbell returns the paper's standard setup: 20 Mb/s bottleneck,
// 30 ms path RTT, BDP-sized drop-tail queue, and 100 Mb/s access links (the
// Emulab node NICs of the era — access-link serialisation spreads sender
// bursts, which matters for drop-tail loss patterns).
func DefaultDumbbell() DumbbellConfig {
	return DumbbellConfig{Bandwidth: 20e6, Delay: 15 * time.Millisecond, AccessBW: 100e6}
}

const (
	leftSide  = 0
	rightSide = 1
)

// NewDumbbell builds the topology on a fresh Network.
func NewDumbbell(s *sim.Scheduler, cfg DumbbellConfig) *Dumbbell {
	if cfg.Bandwidth <= 0 {
		cfg.Bandwidth = 20e6
	}
	if cfg.AccessBW <= 0 {
		cfg.AccessBW = 1e9
	}
	if cfg.QueueMax <= 0 {
		// One bandwidth-delay product of buffering (in 1500 B packets), the
		// classic router rule.
		bdpBytes := cfg.Bandwidth / 8 * (2 * cfg.Delay).Seconds()
		cfg.QueueMax = int(bdpBytes / 1500)
		if cfg.QueueMax < 16 {
			cfg.QueueMax = 16
		}
	}
	d := &Dumbbell{
		net:  NewNetwork(s),
		side: make(map[Addr]int),
		acc:  make(map[Addr]*Link),
		up:   make(map[Addr]*Link),
	}
	d.fwd = NewLink(s, LinkConfig{
		Name: "bottleneck-fwd", Bandwidth: cfg.Bandwidth, Delay: cfg.Delay,
		QueueMax: cfg.QueueMax, LossProb: cfg.LossProb,
	}, d.arriveRight)
	d.rev = NewLink(s, LinkConfig{
		Name: "bottleneck-rev", Bandwidth: cfg.Bandwidth, Delay: cfg.Delay,
		QueueMax: cfg.QueueMax, LossProb: cfg.LossProb,
	}, d.arriveLeft)
	d.accessBW = cfg.AccessBW
	return d
}

func (d *Dumbbell) arriveRight(f *Frame) { d.toHost(f) }
func (d *Dumbbell) arriveLeft(f *Frame)  { d.toHost(f) }

func (d *Dumbbell) toHost(f *Frame) {
	if l, ok := d.acc[f.Dst]; ok {
		d.send(l, f)
		return
	}
	d.deliver(f)
}

// send forwards f on l, reclaiming it if the link drops it.
func (d *Dumbbell) send(l *Link, f *Frame) bool {
	if l.Send(f) {
		return true
	}
	d.PutFrame(f)
	return false
}

// deliver is the terminal sink: the handler borrows f, then it is reclaimed.
func (d *Dumbbell) deliver(f *Frame) {
	d.net.Deliver(f)
	d.PutFrame(f)
}

// GetFrame returns an empty frame from the dumbbell's free list, for
// Inject. Its Payload has length zero and keeps the capacity of earlier
// use, so a sender can append an encoding into it without allocating.
// Ownership passes to the dumbbell at Inject; a frame that is not injected
// goes back with PutFrame.
func (d *Dumbbell) GetFrame() *Frame {
	if n := len(d.free); n > 0 {
		f := d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
		return f
	}
	return &Frame{pooled: true}
}

// PutFrame returns a frame from GetFrame to the free list. The caller must
// hold no reference to it, or to its Payload, afterwards. Frames not taken
// from GetFrame are left alone.
func (d *Dumbbell) PutFrame(f *Frame) {
	if !f.pooled {
		return
	}
	*f = Frame{Payload: f.Payload[:0], pooled: true}
	d.free = append(d.free, f)
}

// Network returns the underlying network (for handler attachment).
func (d *Dumbbell) Network() *Network { return d.net }

// Scheduler returns the underlying scheduler.
func (d *Dumbbell) Scheduler() *sim.Scheduler { return d.net.s }

// Bottleneck returns the forward (left→right) bottleneck link.
func (d *Dumbbell) Bottleneck() *Link { return d.fwd }

// Reverse returns the right→left bottleneck link.
func (d *Dumbbell) Reverse() *Link { return d.rev }

// AddLeft attaches a host on the left (sender) side.
func (d *Dumbbell) AddLeft(h Handler) Addr { return d.add(h, leftSide) }

// AddRight attaches a host on the right (receiver) side.
func (d *Dumbbell) AddRight(h Handler) Addr { return d.add(h, rightSide) }

func (d *Dumbbell) add(h Handler, side int) Addr {
	a := d.net.AddHost(h)
	d.side[a] = side
	// Router → host delivery link: fast, negligible delay, effectively
	// unbuffered contention (hosts are never the bottleneck here). The small
	// per-frame jitter models host timing variance and prevents the
	// deterministic simulation from phase-locking flows to the bottleneck's
	// service schedule.
	d.acc[a] = NewLink(d.net.s, LinkConfig{
		Name: "access-down", Bandwidth: d.accessBW, Delay: 100 * time.Microsecond,
		Jitter: 200 * time.Microsecond,
	}, d.deliver)
	// Host → router uplink: its serialisation spreads sender bursts before
	// they reach the shared bottleneck queue, as a real NIC does.
	d.up[a] = NewLink(d.net.s, LinkConfig{
		Name: "access-up", Bandwidth: d.accessBW, Delay: 100 * time.Microsecond,
		Jitter: 200 * time.Microsecond,
	}, d.route)
	return a
}

// route forwards a frame arriving at its side's router.
func (d *Dumbbell) route(f *Frame) {
	srcSide := d.side[f.Src]
	dstSide, ok := d.side[f.Dst]
	if !ok {
		d.PutFrame(f)
		return
	}
	if srcSide == dstSide {
		d.toHost(f)
		return
	}
	if srcSide == leftSide {
		d.send(d.fwd, f)
		return
	}
	d.send(d.rev, f)
}

// Attach replaces the handler for an address (endpoint created after wiring).
func (d *Dumbbell) Attach(a Addr, h Handler) { d.net.Attach(a, h) }

// Inject sends a frame from a host into the network via the host's uplink;
// frames crossing sides then traverse the bottleneck. The return value
// reports uplink admission (the uplink is effectively lossless; bottleneck
// drops are counted on the bottleneck's stats). Inject takes ownership of
// a frame from GetFrame: the caller must not touch it afterwards.
//
//iqlint:owns
func (d *Dumbbell) Inject(f *Frame) bool {
	if _, ok := d.side[f.Src]; !ok {
		panic("netem: inject from unknown address")
	}
	if _, ok := d.side[f.Dst]; !ok {
		panic("netem: inject to unknown address")
	}
	return d.send(d.up[f.Src], f)
}
