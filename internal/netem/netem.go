// Package netem is the network-emulation substrate standing in for the
// paper's Emulab testbed. It models store-and-forward links with finite
// bandwidth, propagation delay and drop-tail byte queues, simple routers,
// and the dumbbell topologies every experiment uses, all running on the
// deterministic internal/sim scheduler.
//
// The emulator moves opaque frames: a Frame carries an already-encoded
// transport packet (or raw UDP payload for cross-traffic sources) plus
// source/destination addressing. Conservation is auditable: every frame
// entering a link either arrives or is counted as a drop.
package netem

import (
	"fmt"
	"time"

	"github.com/cercs/iqrudp/internal/sim"
)

// Addr identifies an attachment point (a host NIC) in the emulated network.
type Addr uint32

// Frame is one network-layer datagram in flight.
//
// Frames a Dumbbell hands out with GetFrame are pooled: ownership passes
// to the dumbbell at Inject, and it reclaims the frame, Payload storage
// included, when the frame's journey ends (see Dumbbell). Frames a caller
// builds itself are never recycled.
type Frame struct {
	Src, Dst Addr
	Payload  []byte // encoded transport packet or opaque bytes
	Size     int    // wire size in bytes (payload + emulated IP/UDP overhead)

	pooled bool // taken from a Dumbbell's free list
}

// IPUDPOverhead is the emulated per-datagram IP+UDP header cost in bytes.
const IPUDPOverhead = 28

// Handler receives frames addressed to a host.
type Handler interface {
	// HandleFrame borrows f, and f.Payload, for the duration of the call:
	// a pooled frame is recycled as soon as the handler returns, so
	// anything kept past the return must be copied.
	HandleFrame(f *Frame)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(f *Frame)

// HandleFrame calls the function.
func (h HandlerFunc) HandleFrame(f *Frame) { h(f) }

// LinkStats counts what a link did.
type LinkStats struct {
	Sent      uint64 // frames that completed transmission
	SentBytes uint64
	Dropped   uint64 // frames dropped at the queue
	DropBytes uint64
	MaxQueue  int // high-water mark of queued packets
}

// Link is a unidirectional store-and-forward pipe: finite bandwidth, fixed
// propagation delay, drop-tail queue limited in packets (as in Dummynet and
// most router defaults — a byte-limited queue would bias drops against
// large packets when competing with small-packet flows). Frames that finish
// serialisation are handed to the sink after the propagation delay.
type Link struct {
	name        string
	s           *sim.Scheduler
	bps         float64 // bandwidth, bits per second
	delay       time.Duration
	jitter      time.Duration
	queueMax    int // packets; ≤0 means unlimited
	sink        func(f *Frame)
	txDoneFn    func(any) // l.txDone, bound once
	arriveFn    func(any) // l.arrive, bound once
	busyUntil   sim.Time
	queued      int // packets accepted but not yet fully serialised
	queuedBytes int
	lossProb    float64
	red         *red // non-nil when RED is enabled
	stats       LinkStats
}

// LinkConfig describes a link.
type LinkConfig struct {
	Name      string
	Bandwidth float64       // bits per second; must be > 0
	Delay     time.Duration // one-way propagation delay
	QueueMax  int           // queue limit in packets; ≤0 = unlimited
	LossProb  float64       // optional random loss probability in [0,1)

	// Jitter adds a uniform random [0, Jitter) to each frame's propagation
	// delay — the timing noise of real hosts and switches. Without it a
	// deterministic simulation can phase-lock competing flows to the queue's
	// service schedule and skew drop shares wildly.
	Jitter time.Duration
}

// NewLink builds a link delivering frames to sink.
func NewLink(s *sim.Scheduler, cfg LinkConfig, sink func(f *Frame)) *Link {
	if cfg.Bandwidth <= 0 {
		panic("netem: link bandwidth must be positive")
	}
	if sink == nil {
		panic("netem: link sink must not be nil")
	}
	l := &Link{
		name:     cfg.Name,
		s:        s,
		bps:      cfg.Bandwidth,
		delay:    cfg.Delay,
		jitter:   cfg.Jitter,
		queueMax: cfg.QueueMax,
		lossProb: cfg.LossProb,
		sink:     sink,
	}
	l.txDoneFn, l.arriveFn = l.txDone, l.arrive
	return l
}

// Send enqueues a frame. It returns false if the frame was dropped (queue
// overflow or random loss); the link then holds no reference to it.
func (l *Link) Send(f *Frame) bool {
	if f.Size <= 0 {
		f.Size = len(f.Payload) + IPUDPOverhead
	}
	if l.lossProb > 0 && l.s.Rand().Float64() < l.lossProb {
		l.stats.Dropped++
		l.stats.DropBytes += uint64(f.Size)
		return false
	}
	if l.queueMax > 0 && l.queued+1 > l.queueMax {
		l.stats.Dropped++
		l.stats.DropBytes += uint64(f.Size)
		return false
	}
	if l.red != nil && l.redDrop() {
		l.stats.Dropped++
		l.stats.DropBytes += uint64(f.Size)
		return false
	}
	l.queued++
	l.queuedBytes += f.Size
	if l.queued > l.stats.MaxQueue {
		l.stats.MaxQueue = l.queued
	}
	now := l.s.Now()
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	txTime := time.Duration(float64(f.Size*8) / l.bps * float64(time.Second))
	done := start + txTime
	l.busyUntil = done
	arrive := done + l.delay
	if l.jitter > 0 {
		arrive += time.Duration(l.s.Rand().Int63n(int64(l.jitter)))
	}
	l.s.Post(done, l.txDoneFn, f)
	l.s.Post(arrive, l.arriveFn, f)
	return true
}

// txDone runs when a frame finishes serialisation. Arrival is never earlier
// than serialisation end, so the frame is still in this link's hands.
func (l *Link) txDone(a any) {
	f := a.(*Frame)
	l.queued--
	l.queuedBytes -= f.Size
	l.stats.Sent++
	l.stats.SentBytes += uint64(f.Size)
}

// arrive hands a frame to the sink after propagation.
func (l *Link) arrive(a any) { l.sink(a.(*Frame)) }

// QueuedPackets returns the packets currently held by the link queue
// (including the frame being serialised).
func (l *Link) QueuedPackets() int { return l.queued }

// QueuedBytes returns the bytes currently held by the link queue.
func (l *Link) QueuedBytes() int { return l.queuedBytes }

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// Name returns the link's configured name.
func (l *Link) Name() string { return l.name }

// Network is a set of hosts and routers connected by links, with static
// routing: each node knows, per destination, the link to forward on.
type Network struct {
	s        *sim.Scheduler
	handlers map[Addr]Handler
	nextAddr Addr
	// routes[via] maps a destination to the outgoing link at node "via".
	// Hosts deliver locally; routers forward.
	delivered uint64
}

// NewNetwork returns an empty network on the given scheduler.
func NewNetwork(s *sim.Scheduler) *Network {
	return &Network{s: s, handlers: make(map[Addr]Handler), nextAddr: 1}
}

// Scheduler returns the underlying scheduler.
func (n *Network) Scheduler() *sim.Scheduler { return n.s }

// AddHost registers a handler and returns its address.
func (n *Network) AddHost(h Handler) Addr {
	a := n.nextAddr
	n.nextAddr++
	n.handlers[a] = h
	return a
}

// Attach replaces the handler for an existing address (used when a host's
// endpoint is created after topology wiring).
func (n *Network) Attach(a Addr, h Handler) {
	if _, ok := n.handlers[a]; !ok {
		panic(fmt.Sprintf("netem: attach to unknown address %d", a))
	}
	n.handlers[a] = h
}

// Deliver hands a frame to its destination handler, which borrows it for
// the call. It is the terminal sink used by the last link on a path.
func (n *Network) Deliver(f *Frame) {
	h, ok := n.handlers[f.Dst]
	if !ok || h == nil {
		return // unknown destination: silently dropped, like a real network
	}
	n.delivered++
	h.HandleFrame(f)
}

// Delivered returns the count of frames handed to handlers.
func (n *Network) Delivered() uint64 { return n.delivered }
