// Package fixture exercises the poolcheck analyzer.
package fixture

import (
	"github.com/cercs/iqrudp/internal/netem"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/uio"
)

var global *packet.Packet

func leaked() {
	p := packet.Get() // want `packet.Get result is never released`
	_ = p.Seq
}

func leakedBuf(pool *uio.BufPool) {
	b := pool.Get() // want `uio.BufPool.Get result is never released`
	_ = len(b)
}

func deferred() {
	p := packet.Get()
	defer packet.Put(p)
	_ = p.Seq
}

func releasedBuf(pool *uio.BufPool) {
	b := pool.Get()
	copy(b, "x")
	pool.Put(b)
}

func returned() *packet.Packet {
	p := packet.Get() // ownership transfers to the caller
	return p
}

func storedGlobal() {
	p := packet.Get() // ownership parked in a package variable
	global = p
}

func sent(ch chan *packet.Packet) {
	p := packet.Get() // ownership rides the channel
	ch <- p
}

func useAfterPut() {
	p := packet.Get()
	packet.Put(p)
	_ = p.Seq // want `use of p after Put returned it to the pool`
}

func rebindingResets() {
	p := packet.Get()
	packet.Put(p)
	p = packet.Get()
	defer packet.Put(p)
	_ = p.Seq // fine: p was rebound to a fresh packet
}

// sink takes ownership of the buffers handed to it.
//
//iqlint:owns
func sink(b []byte) error { return nil }

// sendFunc values take ownership of the buffers handed to them.
//
//iqlint:owns
type sendFunc func(b []byte) error

func borrow(b []byte) {}

func handedOff(pool *uio.BufPool) error {
	b := pool.Get() // ownership moves to sink
	return sink(b[:8])
}

func handedOffThroughFuncType(pool *uio.BufPool, send sendFunc) {
	b := pool.Get()
	b = append(b[:0], 'x')
	if err := send(b); err != nil {
		return
	}
}

func useAfterHandoff(pool *uio.BufPool) {
	b := pool.Get()
	_ = sink(b)
	_ = b[0] // want `use of b after its ownership was handed off`
}

func borrowIsNotHandoff(pool *uio.BufPool) {
	b := pool.Get() // want `uio.BufPool.Get result is never released`
	borrow(b)
}

// The simulator's frame pool: netem.Dumbbell.Inject is declared
// //iqlint:owns in another package, so injecting is a hand-off.

func frameInjected(d *netem.Dumbbell, src, dst netem.Addr) {
	f := d.GetFrame() // ownership moves to the dumbbell
	f.Src, f.Dst = src, dst
	f.Payload = append(f.Payload, 'x')
	d.Inject(f)
}

func frameReturned(d *netem.Dumbbell) {
	f := d.GetFrame()
	defer d.PutFrame(f)
	f.Size = 100
}

func frameLeaked(d *netem.Dumbbell) {
	f := d.GetFrame() // want `netem.Dumbbell.GetFrame result is never released`
	f.Size = 100
}

func frameUsedAfterInject(d *netem.Dumbbell) int {
	f := d.GetFrame()
	d.Inject(f)
	return f.Size // want `use of f after its ownership was handed off`
}
