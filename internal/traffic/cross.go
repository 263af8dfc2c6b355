package traffic

import (
	"time"

	"github.com/cercs/iqrudp/internal/netem"
	"github.com/cercs/iqrudp/internal/sim"
)

// UDPSink is a counting sink for raw (transport-less) cross traffic.
type UDPSink struct {
	Frames uint64
	Bytes  uint64
}

// HandleFrame implements netem.Handler.
func (u *UDPSink) HandleFrame(f *netem.Frame) {
	u.Frames++
	u.Bytes += uint64(f.Size)
}

// CBR is an iperf-like constant-bit-rate UDP source: fixed-size datagrams at
// a fixed rate, unresponsive to loss — the congesting cross traffic of the
// experiments.
type CBR struct {
	d       *netem.Dumbbell
	src     netem.Addr
	dst     netem.Addr
	rate    float64 // bits per second
	pktSize int     // wire bytes per datagram
	ticker  *sim.Ticker
	Sink    *UDPSink
	sent    uint64
}

// NewCBR attaches a CBR source on the left side of the dumbbell and its sink
// on the right, offering rateBps with pktSize-byte datagrams.
func NewCBR(d *netem.Dumbbell, rateBps float64, pktSize int) *CBR {
	if pktSize <= 0 {
		pktSize = 1000
	}
	c := &CBR{d: d, rate: rateBps, pktSize: pktSize, Sink: &UDPSink{}}
	c.src = d.AddLeft(netem.HandlerFunc(func(*netem.Frame) {}))
	c.dst = d.AddRight(c.Sink)
	return c
}

// Start begins transmission.
func (c *CBR) Start() {
	if c.ticker != nil || c.rate <= 0 {
		return
	}
	interval := time.Duration(float64(c.pktSize*8) / c.rate * float64(time.Second))
	if interval <= 0 {
		interval = time.Microsecond
	}
	c.ticker = sim.NewTicker(c.d.Scheduler(), interval, func() {
		c.sent++
		f := c.d.GetFrame()
		f.Src, f.Dst, f.Size = c.src, c.dst, c.pktSize
		c.d.Inject(f)
	})
}

// Stop halts transmission.
func (c *CBR) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
		c.ticker = nil
	}
}

// Sent returns datagrams offered so far.
func (c *CBR) Sent() uint64 { return c.sent }

// VBR is the variable-bit-rate UDP source of the changing-network
// experiments: a fixed frame rate (paper: 500 frames/s) whose frame size
// follows the membership trace (group×unit bytes). Frames larger than the
// MTU are injected as multiple datagrams.
type VBR struct {
	d      *netem.Dumbbell
	src    netem.Addr
	dst    netem.Addr
	trace  Trace
	fps    float64
	unit   int
	mtu    int
	ticker *sim.Ticker
	Sink   *UDPSink
	sent   uint64
	start  time.Duration

	// Loop replays the trace from the start when it runs out (long
	// experiments); false holds the final sample's value.
	Loop bool
}

// NewVBR attaches a VBR source (left) and sink (right) to the dumbbell.
func NewVBR(d *netem.Dumbbell, trace Trace, fps float64, unit int) *VBR {
	v := &VBR{d: d, trace: trace, fps: fps, unit: unit, mtu: 1400, Sink: &UDPSink{}}
	v.src = d.AddLeft(netem.HandlerFunc(func(*netem.Frame) {}))
	v.dst = d.AddRight(v.Sink)
	return v
}

// Start begins transmission; the trace is read relative to the start time
// and wraps around when it runs out.
func (v *VBR) Start() {
	if v.ticker != nil || v.fps <= 0 {
		return
	}
	s := v.d.Scheduler()
	v.start = s.Now()
	interval := time.Duration(float64(time.Second) / v.fps)
	if interval <= 0 {
		interval = time.Microsecond
	}
	v.ticker = sim.NewTicker(s, interval, func() {
		elapsed := s.Now() - v.start
		if d := v.trace.Duration(); v.Loop && d > 0 {
			elapsed = elapsed % d
		}
		size := v.trace.At(elapsed) * v.unit
		for size > 0 {
			n := size
			if n > v.mtu {
				n = v.mtu
			}
			v.sent++
			f := v.d.GetFrame()
			f.Src, f.Dst, f.Size = v.src, v.dst, n+netem.IPUDPOverhead
			v.d.Inject(f)
			size -= n
		}
	})
}

// Stop halts transmission.
func (v *VBR) Stop() {
	if v.ticker != nil {
		v.ticker.Stop()
		v.ticker = nil
	}
}

// Sent returns datagrams offered so far.
func (v *VBR) Sent() uint64 { return v.sent }
