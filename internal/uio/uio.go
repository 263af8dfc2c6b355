// Package uio provides batched UDP datagram I/O shared by the socket
// drivers: pooled receive buffers and recvmmsg/sendmmsg batchers on Linux
// (amd64/arm64) with a portable one-datagram-per-syscall fallback. The
// serve engine's shards and udpwire's dialed-connection TX ring both build
// on it.
package uio

import (
	"net/netip"
	"sync"
	"sync/atomic"
)

// GROBufSize is the receive-buffer size required when UDP_GRO is enabled:
// the kernel may coalesce a same-flow burst into one super-datagram of up
// to 64 KiB per recvmmsg slot.
const GROBufSize = 1 << 16

// Msg is one datagram: a buffer and the peer address. A zero (invalid)
// Addr means the socket's connected peer (valid for TX on dialed sockets
// only; RX on an unconnected socket always fills Addr). Received addresses
// are canonical (see Canonical), so they compare and hash as map keys.
type Msg struct {
	B    []byte
	Addr netip.AddrPort
}

// Canonical returns ap with a v4-mapped IPv6 address unmapped to plain
// IPv4, so one peer seen through an AF_INET6 socket and through an AF_INET
// one yields the same key.
func Canonical(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// BufPool recycles fixed-size buffers across batches and counts freelist
// traffic. A receive buffer's lifetime ends when its datagram has been
// parsed (packet.DecodeInto copies the payload out); a transmit buffer's
// when the batched writer has sent (or dropped) it.
type BufPool struct {
	pool   sync.Pool // *[]byte boxes holding full-size buffers
	boxes  sync.Pool // emptied *[]byte boxes, so Put need not allocate one
	size   int
	gets   atomic.Uint64
	misses atomic.Uint64
}

// NewBufPool builds a pool of size-byte buffers.
func NewBufPool(size int) *BufPool {
	bp := &BufPool{size: size}
	bp.pool.New = func() any {
		bp.misses.Add(1)
		b := make([]byte, size)
		return &b
	}
	return bp
}

// Get returns a full-size buffer.
func (bp *BufPool) Get() []byte {
	bp.gets.Add(1)
	box := bp.pool.Get().(*[]byte)
	b := *box
	*box = nil
	bp.boxes.Put(box)
	return b
}

// Put returns a buffer to the pool. Short slices of a pooled buffer are
// restored to full size; foreign undersized buffers are dropped.
func (bp *BufPool) Put(b []byte) {
	if cap(b) < bp.size {
		return
	}
	box, _ := bp.boxes.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b[:bp.size]
	bp.pool.Put(box)
}

// Stats reports pool traffic since creation: gets served from a recycled
// buffer (hits) and gets that allocated (misses).
func (bp *BufPool) Stats() (hits, misses uint64) {
	g, m := bp.gets.Load(), bp.misses.Load()
	if g < m {
		g = m // the two loads race; never report negative hits
	}
	return g - m, m
}
