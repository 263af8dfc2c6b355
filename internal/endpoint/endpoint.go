// Package endpoint binds the sans-I/O IQ-RUDP machine (internal/core) to the
// emulated network (internal/netem): packets emitted by a machine are
// encoded to bytes, shipped as frames across the dumbbell, and decoded back
// on arrival. It is the simulation driver used by the core tests, the
// experiment harness and the examples.
package endpoint

import (
	"fmt"
	"time"

	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/netem"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/sim"
)

// Transport is the interface both internal/core (IQ-RUDP) and
// internal/tcpsim (TCP Reno) machines satisfy, letting the experiment
// harness swap transports behind one endpoint type.
type Transport interface {
	StartClient()
	StartServer()
	Established() bool
	// HandlePacket borrows p, with its Payload, Eacks and Attrs storage,
	// for the duration of the call: the endpoint decodes every frame into
	// one reused packet, so a transport copies whatever it keeps.
	HandlePacket(p *packet.Packet)
	Send(data []byte, marked bool) error
	CanSend() bool
	QueuedPackets() int
	OnWritable(fn func())
	Close()
}

// Endpoint is one host running a transport machine on the dumbbell.
type Endpoint struct {
	// T is the transport machine (IQ-RUDP or TCP).
	T Transport
	// Machine is T as a *core.Machine when the endpoint runs IQ-RUDP
	// (nil for other transports).
	Machine *core.Machine

	d      *netem.Dumbbell
	addr   netem.Addr
	peer   netem.Addr
	rx     packet.Packet  // decode scratch, lent to T.HandlePacket
	timers *sim.TimerPool // handles recycled under core's Timer contract

	// OnMessage, when set, receives every delivered application message.
	OnMessage func(msg core.Message)

	// Record, when true, appends delivered messages to Delivered.
	Record    bool
	Delivered []core.Message

	// Drops counts frames that failed to decode (corruption would be a
	// simulator bug; this stays zero).
	Drops int
}

// simEnv adapts the scheduler+network to core.Env for one endpoint.
type simEnv struct{ ep *Endpoint }

func (e simEnv) Now() time.Duration { return e.ep.d.Scheduler().Now() }

func (e simEnv) Emit(p *packet.Packet) {
	f := e.ep.d.GetFrame()
	b, err := packet.AppendEncode(f.Payload, p)
	if err != nil {
		panic(fmt.Sprintf("endpoint: encode failed: %v", err))
	}
	f.Src, f.Dst, f.Payload = e.ep.addr, e.ep.peer, b
	e.ep.d.Inject(f)
}

func (e simEnv) Deliver(msg core.Message) {
	if e.ep.Record {
		e.ep.Delivered = append(e.ep.Delivered, msg)
	}
	if e.ep.OnMessage != nil {
		e.ep.OnMessage(msg)
	}
}

// After recycles handles: both transports follow core.Timer's
// reusable-handle contract.
func (e simEnv) After(d time.Duration, fn func()) core.Timer {
	return e.ep.timers.After(d, fn)
}

// HandleFrame implements netem.Handler. The frame is decoded into the
// endpoint's scratch packet, which the transport borrows.
func (ep *Endpoint) HandleFrame(f *netem.Frame) {
	if err := packet.DecodeInto(&ep.rx, f.Payload, ep.rx.Payload[:0]); err != nil {
		ep.Drops++
		return
	}
	ep.T.HandlePacket(&ep.rx)
}

// Addr returns the endpoint's network address.
func (ep *Endpoint) Addr() netem.Addr { return ep.addr }

// Env returns the endpoint's core.Env, for constructing a transport machine
// after the endpoint is wired into the network.
func (ep *Endpoint) Env() core.Env { return simEnv{ep} }

// Pair creates a connected IQ-RUDP sender/receiver pair across the dumbbell:
// the sender on the left side, the receiver on the right. The handshake is
// initiated immediately; run the scheduler to complete it.
func Pair(d *netem.Dumbbell, senderCfg, receiverCfg core.Config) (*Endpoint, *Endpoint) {
	snd, rcv := PairTransport(d,
		func(env core.Env) Transport { return core.NewMachine(senderCfg, env) },
		func(env core.Env) Transport { return core.NewMachine(receiverCfg, env) })
	snd.Machine = snd.T.(*core.Machine)
	rcv.Machine = rcv.T.(*core.Machine)
	return snd, rcv
}

// PairTransport creates a connected pair with arbitrary transports built by
// the given factories (sender left, receiver right).
func PairTransport(d *netem.Dumbbell, mkSnd, mkRcv func(env core.Env) Transport) (*Endpoint, *Endpoint) {
	snd := &Endpoint{d: d, timers: sim.NewTimerPool(d.Scheduler())}
	rcv := &Endpoint{d: d, timers: sim.NewTimerPool(d.Scheduler())}
	snd.addr = d.AddLeft(snd)
	rcv.addr = d.AddRight(rcv)
	snd.peer, rcv.peer = rcv.addr, snd.addr
	snd.T = mkSnd(simEnv{snd})
	rcv.T = mkRcv(simEnv{rcv})
	rcv.T.StartServer()
	snd.T.StartClient()
	return snd, rcv
}

// WaitEstablished runs the scheduler until both machines are established or
// the deadline passes, reporting success.
func WaitEstablished(s *sim.Scheduler, a, b *Endpoint, deadline time.Duration) bool {
	for s.Now() < deadline {
		if a.T.Established() && b.T.Established() {
			return true
		}
		if !s.Step() {
			break
		}
	}
	return a.T.Established() && b.T.Established()
}
