package serve

import (
	"errors"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cercs/iqrudp/internal/guard"
	"github.com/cercs/iqrudp/internal/hist"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/trace"
	"github.com/cercs/iqrudp/internal/udpwire"
	"github.com/cercs/iqrudp/internal/uio"
	"github.com/cercs/iqrudp/internal/wheel"
)

// shard owns one slice of the connection table: every connection whose
// ConnID mod Shards equals idx lives here. On Linux each shard also owns a
// SO_REUSEPORT socket with its own read and transmit loops; in the portable
// fallback all shards delegate I/O to the socket-owning shard via io.
type shard struct {
	srv  *Server
	idx  int
	sock *net.UDPConn
	io   *shard // shard running the loops for sock (itself when socket-owning)

	// wh drives every timer of every connection homed on this shard: one
	// timing-wheel goroutine per shard instead of a runtime timer per arm,
	// so timer dispatch (and the machine work it triggers) stays
	// shard-local. Closed by Server.Close after the drain completes.
	wh *wheel.Wheel

	mu     sync.RWMutex
	byID   map[uint32]*udpwire.Conn
	byAddr map[netip.AddrPort]uint32 // canonical source address -> ConnID, for SYN-time collision checks

	// gates holds the anti-amplification gate of every connection admitted
	// without a validated cookie; route credits it per datagram and removes
	// it once the handshake proves return routability. Guarded by mu.
	gates map[uint32]*ampGate

	// rstBucket caps outbound RST refusals so a spoofed flood cannot turn
	// the engine into a reflector; suppressed refusals are still counted.
	rstBucket *guard.TokenBucket

	// txq carries datagrams to the transmit loop. Every buffer on it was
	// drawn from srv.txPool; txLoop returns it once sent or dropped.
	txq chan uio.Msg

	// enqueueFn and detachFn are enqueueTx and detach bound once at Listen,
	// so admitting a connection hands them over without making closures.
	enqueueFn udpwire.SendFunc
	detachFn  func(c *udpwire.Conn)

	rxPackets atomic.Uint64
	rxBatches atomic.Uint64
	rxErrors  atomic.Uint64
	rxBytes   atomic.Uint64
	txPackets atomic.Uint64
	txBatches atomic.Uint64
	txBytes   atomic.Uint64
	txDrops   atomic.Uint64

	// Distribution metrics (nil when Options.FlightEvents disables
	// observability): datagrams per batched read, decode+route latency of
	// one batch, and how late the shard's wheel dispatches its timers.
	// Only socket-owning shards record rx metrics; every shard's wheel
	// records lateness.
	rxBatchH   *hist.Hist
	dispatchH  *hist.Hist
	wheelLateH *hist.Hist
}

// homeShard routes a ConnID to its owning shard.
func (srv *Server) homeShard(id uint32) *shard {
	return srv.shards[int(id)%len(srv.shards)]
}

// readLoop pulls batches of datagrams off the socket and routes each to the
// ConnID's home shard. Buffers come from rb's pool; packet.DecodeInto copies
// the payload out, so the batch's buffers are released as soon as every
// datagram has been parsed and routed. One pooled Packet is recycled across
// all datagrams: route — and the machine under it — only borrows the packet
// for the duration of the call (see the Env.Emit / Machine.HandlePacket
// ownership contract in core).
func (sh *shard) readLoop(rb *uio.RxBatcher) {
	p := packet.Get()
	defer packet.Put(p)
	for {
		msgs, err := rb.Recv()
		if err != nil {
			return // socket closed
		}
		if len(msgs) == 0 {
			continue
		}
		sh.rxBatches.Add(1)
		sh.rxPackets.Add(uint64(len(msgs)))
		var bytes uint64
		for _, m := range msgs {
			bytes += uint64(len(m.B))
		}
		sh.rxBytes.Add(bytes)
		var began time.Time
		if sh.rxBatchH != nil {
			sh.rxBatchH.Record(int64(len(msgs)))
			began = time.Now()
		}
		for _, m := range msgs {
			if err := packet.DecodeInto(p, m.B, p.Payload); err != nil {
				sh.rxErrors.Add(1)
				continue
			}
			sh.srv.homeShard(p.ConnID).route(p, m.Addr)
		}
		if sh.dispatchH != nil {
			sh.dispatchH.RecordDur(time.Since(began))
		}
		rb.Release(msgs)
	}
}

// route applies the demux rules to one inbound packet from src (a
// canonical address, see uio.Canonical) on its home shard.
//
//iqlint:borrow
func (sh *shard) route(p *packet.Packet, src netip.AddrPort) {
	sh.mu.RLock()
	c := sh.byID[p.ConnID]
	g := sh.gates[p.ConnID]
	sh.mu.RUnlock()

	if g != nil {
		// Every datagram from the unvalidated peer buys it 3x response
		// budget; once the handshake completes the gate latches open and
		// can be dropped from the table.
		g.credit(p.WireSize())
		if g.promote() {
			sh.mu.Lock()
			if cur, ok := sh.gates[p.ConnID]; ok && cur == g {
				delete(sh.gates, p.ConnID)
			}
			sh.mu.Unlock()
		}
	}

	if c != nil {
		old, migrated, collided := c.HandleFrom(p, src)
		switch {
		case collided:
			// Another host picked an in-use ConnID: refuse the newcomer
			// rather than hijack the established connection.
			sh.refuse(p, src)
		case migrated:
			sh.migrated(p.ConnID, old, src)
		}
		return
	}

	if p.Type != packet.SYN {
		sh.srv.stray.Add(1)
		return
	}
	sh.acceptSyn(p, src)
}

// migrated re-keys the address table after connection id moved from old to
// src (NAT rebind / source-port change): the stale entry is reaped.
func (sh *shard) migrated(id uint32, old, src netip.AddrPort) {
	sh.mu.Lock()
	if cur, ok := sh.byAddr[old]; ok && cur == id {
		delete(sh.byAddr, old)
	}
	sh.byAddr[src] = id
	sh.mu.Unlock()
	sh.srv.migrations.Add(1)
}

// acceptSyn admits a new connection, applying stateless address validation
// (cookie challenge under load), per-prefix SYN rate limits, governor
// brownouts, address-key fallback (a SYN has no established ConnID entry
// yet), validated zombie eviction, backpressure and the drain gate.
//
//iqlint:borrow
func (sh *shard) acceptSyn(p *packet.Packet, src netip.AddrPort) {
	srv := sh.srv
	if srv.draining() {
		sh.refuse(p, src)
		return
	}

	now := time.Now()

	// Peel the optional cookie block off the SYN payload and verify it
	// against the rotating secret. A cookie binds (source address, proposed
	// ConnID), so a valid one proves this 4-tuple completed a RETRY round
	// trip — the peer owns its source address.
	cookie, rest := packet.SplitSynPayload(p.Payload)
	cookieOK := cookie != nil && srv.cookies.VerifyAddr(cookie, src, p.ConnID, now)
	if cookie != nil && !cookieOK {
		srv.cookieRejects.Add(1)
	}

	// Decide whether this SYN must present a cookie: global load triggers
	// (cookieMode) or its source prefix exceeding the per-prefix budget.
	// Cookie-holders skip the prefix limiter — their cookie already cost a
	// round trip, so they cannot be minted faster than line rate anyway —
	// which keeps legitimate clients reachable from a flooded /24.
	synRate := srv.synMeter.tick(now)
	needCookie := srv.cookieMode(synRate)
	if !cookieOK && srv.synLimiter != nil && !srv.synLimiter.AllowAddr(src.Addr(), now) {
		srv.synLimited.Add(1)
		needCookie = true
	}

	// Resume: a SYN whose payload carries a resume token names a dead
	// predecessor connection (see packet.ParseResumeToken). The predecessor
	// usually dialed from a different source address (NAT rebind, restart),
	// so the address-key fallback below cannot find it — the token can.
	// Eviction is destructive, so it demands a validated source address:
	// an unvalidated token is answered with RETRY instead, never evicting.
	// Once validated, evict abortively and immediately: waiting out the
	// dead interval would leave a zombie holding buffers, and FINing it
	// would spray packets at an address that may now belong to someone else.
	if prevID, ok := packet.ParseResumeToken(rest); ok && prevID != p.ConnID {
		if !cookieOK {
			srv.evictDenied.Add(1)
			sh.sendRetry(p, src, trace.ReasonEvictDenied)
			return
		}
		home := srv.homeShard(prevID)
		home.mu.RLock()
		old := home.byID[prevID]
		home.mu.RUnlock()
		if old != nil {
			old.AbortWith(trace.ReasonResumed)
		}
		srv.resumes.Add(1)
		if srv.cfg.Tracer != nil {
			srv.cfg.Tracer.Trace(trace.Event{
				Type:   trace.ConnResumed,
				ConnID: p.ConnID,
				Seq:    prevID,
			})
		}
	}

	// Stateless challenge: under load a cookie-less (or stale-cookied) SYN
	// is answered with RETRY and forgotten — no machine, no map entry, no
	// timer. The flood pays for our secret-keyed MAC; we hold nothing.
	if needCookie && !cookieOK {
		reason := ""
		if cookie != nil {
			reason = trace.ReasonBadCookie
		}
		sh.sendRetry(p, src, reason)
		return
	}

	// Deepest brownout: the ledger says memory is nearly gone, so stop
	// admitting entirely until established connections release buffers.
	if srv.gov.Level() >= 3 {
		sh.refuse(p, src)
		return
	}

	// Address-key fallback: if this source address already hosts a different
	// connection, the client restarted from the same port — its predecessor
	// is a zombie. Eviction again demands a validated source: a spoofer who
	// guesses an active 4-tuple must not be able to knock it down with one
	// forged SYN. Evict abortively (no FIN: the address now belongs to the
	// new connection) before admitting the successor.
	sh.mu.Lock()
	if oldID, ok := sh.byAddr[src]; ok && oldID != p.ConnID {
		if !cookieOK {
			sh.mu.Unlock()
			srv.evictDenied.Add(1)
			sh.sendRetry(p, src, trace.ReasonEvictDenied)
			return
		}
		if zombie := sh.byID[oldID]; zombie != nil {
			delete(sh.byID, oldID)
			delete(sh.byAddr, src)
			sh.mu.Unlock()
			zombie.Abort()
			sh.mu.Lock()
		}
	}
	if _, ok := sh.byID[p.ConnID]; ok {
		// Raced with another packet admitting the same ConnID.
		sh.mu.Unlock()
		sh.route(p, src)
		return
	}

	io := sh.io
	send := io.enqueueFn
	var g *ampGate
	if !cookieOK {
		// Admitted without address validation (light load): cap bytes
		// toward this peer at 3x bytes received until its handshake
		// completes. The admitting SYN itself is the first credit.
		g = &ampGate{}
		g.credit(p.WireSize())
		send = sh.gatedSendTo(g, p.ConnID)
	}
	c := udpwire.NewAcceptedOn(sh.wh, srv.connConfig(), io.sock.LocalAddr(), src,
		srv.txPool, send, sh.detachFn)
	if g != nil {
		g.conn.Store(c)
	}
	sh.byID[p.ConnID] = c
	sh.byAddr[src] = p.ConnID
	if g != nil {
		sh.gates[p.ConnID] = g
	}
	sh.mu.Unlock()

	select {
	case sh.srv.accept <- c:
		srv.accepted.Add(1)
		srv.ledger.Add(guard.ClassConn, connOverhead)
		c.HandleFrom(p, src)
	default:
		// Accept queue full: refuse with RST so the client fails fast
		// instead of retrying into a black hole.
		sh.mu.Lock()
		if cur, ok := sh.byID[p.ConnID]; ok && cur == c {
			delete(sh.byID, p.ConnID)
		}
		if id, ok := sh.byAddr[src]; ok && id == p.ConnID {
			delete(sh.byAddr, src)
		}
		if cur, ok := sh.gates[p.ConnID]; ok && cur == g {
			delete(sh.gates, p.ConnID)
		}
		sh.mu.Unlock()
		c.Abort()
		sh.refuse(p, src)
	}
}

// refuse sends an RST answering packet p to dst and counts the refusal.
//
//iqlint:borrow
func (sh *shard) refuse(p *packet.Packet, dst netip.AddrPort) {
	sh.srv.refused.Add(1)
	if sh.rstBucket != nil && !sh.rstBucket.Allow(time.Now()) {
		// RST emission is rate-capped per shard so a spoofed flood cannot
		// use the engine as a reflector; the refusal is still counted above
		// and the suppression surfaced through Stats.
		sh.srv.rstSuppressed.Add(1)
		return
	}
	// Best effort: a dropped RST just means the client times out instead
	// of failing fast, and the refusal itself is already counted.
	_ = sh.io.encodeTx(&packet.Packet{
		Type:   packet.RST,
		ConnID: p.ConnID,
		Seq:    p.Ack,
		Ack:    p.Seq + 1,
	}, dst)
}

// detach removes a closed connection from the demux tables and archives
// its observability state (histogram samples, flight record).
func (sh *shard) detach(c *udpwire.Conn) {
	id := c.ID()
	if id == 0 {
		return
	}
	addr := c.Peer()
	sh.mu.Lock()
	if cur, ok := sh.byID[id]; ok && cur == c {
		delete(sh.byID, id)
	}
	if cur, ok := sh.byAddr[addr]; ok && cur == id {
		delete(sh.byAddr, addr)
	}
	if g, ok := sh.gates[id]; ok && g.conn.Load() == c {
		delete(sh.gates, id)
	}
	sh.mu.Unlock()
	sh.srv.ledger.Sub(guard.ClassConn, connOverhead)
	sh.srv.noteClosed(c)
}

// enqueueTx queues one outbound datagram for the shard's transmit loop. It
// is the engine's udpwire.SendFunc: b must come from srv.txPool, and
// ownership passes here on every return — txLoop puts b back after the
// send, and a full queue puts it back at once. Non-blocking: the protocol
// machine retransmits on loss, so under extreme overload dropping here is
// safer than stalling every connection behind a full queue.
//
//iqlint:owns
func (sh *shard) enqueueTx(b []byte, peer netip.AddrPort) error {
	select {
	case sh.txq <- uio.Msg{B: b, Addr: peer}:
		return nil
	default:
		sh.srv.txPool.Put(b)
		sh.txDrops.Add(1)
		return errTxBacklog
	}
}

// encodeTx encodes an engine-built packet (RETRY, RST) into a pooled
// buffer and queues it for dst.
func (sh *shard) encodeTx(p *packet.Packet, dst netip.AddrPort) error {
	b := sh.srv.txPool.Get()
	b, err := packet.AppendEncode(b[:0], p)
	if err != nil {
		return err // structurally impossible for engine-built packets
	}
	return sh.enqueueTx(b, dst)
}

// errTxBacklog reports a datagram dropped because the shard's transmit queue
// was full. Surfacing it through the sendTo hook lets the owning machine
// count the drop into its TxErrors metric (and trace it as tx_error) in
// addition to the shard-wide txDrops counter.
var errTxBacklog = errors.New("serve: shard tx queue full")

// txLoop coalesces queued datagrams into sendmmsg batches: block for the
// first message, then drain without blocking up to the batch bound.
func (sh *shard) txLoop(tb *uio.TxBatcher) {
	batch := make([]uio.Msg, 0, sh.srv.opt.Batch)
	for {
		batch = batch[:0]
		select {
		case m := <-sh.txq:
			batch = append(batch, m)
		case <-sh.srv.closed:
			return
		}
	drain:
		for len(batch) < cap(batch) {
			select {
			case m := <-sh.txq:
				batch = append(batch, m)
			default:
				break drain
			}
		}
		sent, err := tb.Send(batch)
		sh.txBatches.Add(1)
		sh.txPackets.Add(uint64(sent))
		var bytes uint64
		for _, m := range batch[:sent] {
			bytes += uint64(len(m.B))
		}
		sh.txBytes.Add(bytes)
		if sent < len(batch) {
			sh.txDrops.Add(uint64(len(batch) - sent))
		}
		// Sent or not, every buffer's life ends here.
		for i := range batch {
			sh.srv.txPool.Put(batch[i].B)
			batch[i] = uio.Msg{}
		}
		if err != nil && sockClosed(err) {
			return
		}
	}
}

// sockClosed reports whether an I/O error means the socket is gone.
func sockClosed(err error) bool {
	if err == nil {
		return false
	}
	ne, ok := err.(net.Error)
	return !ok || !ne.Timeout()
}
