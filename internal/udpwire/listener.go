package udpwire

import (
	"net"
	"net/netip"
	"sync"
	"time"

	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/uio"
)

// Listener accepts IQ-RUDP connections on one UDP socket, demultiplexing by
// remote address. It is the simple, portable acceptor: one goroutine, one
// read buffer, one write path. The serve engine (internal/serve) is the
// scalable alternative — sharded ConnID demux over several sockets with
// batched I/O.
type Listener struct {
	sock *net.UDPConn
	cfg  core.Config
	tx   *uio.BufPool // accepted connections' encode buffers

	mu     sync.Mutex
	conns  map[netip.AddrPort]*Conn
	accept chan *Conn
	closed chan struct{}
	once   sync.Once
}

// Listen binds laddr ("host:port") and starts the demultiplexing loop. cfg
// configures every accepted connection (notably LossTolerance, the
// receiver-side reliability knob).
func Listen(laddr string, cfg core.Config) (*Listener, error) {
	ua, err := net.ResolveUDPAddr("udp", laddr)
	if err != nil {
		return nil, err
	}
	sock, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	ln := &Listener{
		sock:   sock,
		cfg:    cfg,
		tx:     uio.NewBufPool(BufSize(cfg)),
		conns:  make(map[netip.AddrPort]*Conn),
		accept: make(chan *Conn, 16),
		closed: make(chan struct{}),
	}
	go ln.readLoop()
	return ln, nil
}

func (ln *Listener) readLoop() {
	buf := make([]byte, 65536)
	var p packet.Packet // recycled: connections only borrow it per packet
	for {
		n, raddr, err := ln.sock.ReadFromUDPAddrPort(buf)
		if err != nil {
			ln.Close()
			return
		}
		if err := packet.DecodeInto(&p, buf[:n], p.Payload); err != nil {
			continue
		}
		key := uio.Canonical(raddr)
		if c := ln.connFor(key, &p); c != nil {
			// The table is keyed on the peer each conn was built with, so
			// HandleFrom always takes its plain handle branch here.
			c.HandleFrom(&p, key)
		}
	}
}

// connFor finds or (on SYN) creates the connection for a remote address.
func (ln *Listener) connFor(key netip.AddrPort, p *packet.Packet) *Conn {
	ln.mu.Lock()
	if c, ok := ln.conns[key]; ok {
		ln.mu.Unlock()
		return c
	}
	if p.Type != packet.SYN {
		ln.mu.Unlock()
		return nil // stray non-SYN from an unknown peer
	}
	c := NewAccepted(ln.cfg, ln.sock.LocalAddr(), key, ln.tx,
		func(b []byte, peer netip.AddrPort) error {
			_, err := ln.sock.WriteToUDPAddrPort(b, peer)
			ln.tx.Put(b)
			return err
		},
		ln.forget)
	ln.conns[key] = c
	refused := false
	select {
	case ln.accept <- c:
	default:
		// Accept backlog full: refuse by forgetting; the client will retry.
		delete(ln.conns, key)
		refused = true
	}
	ln.mu.Unlock()
	if refused {
		// The refused conn's machine already ran StartServer; close it so
		// nothing (timers, delivery queue) leaks. Outside ln.mu: Close's
		// detach hook re-enters forget.
		c.Close()
		return nil
	}
	return c
}

// forget removes a closed connection from the demux table.
func (ln *Listener) forget(c *Conn) {
	addr := c.Peer()
	ln.mu.Lock()
	if cur, ok := ln.conns[addr]; ok && cur == c {
		delete(ln.conns, addr)
	}
	ln.mu.Unlock()
}

// Accept blocks until a new connection's handshake has begun, the timeout
// elapses (0 = no timeout), or the listener closes. The returned connection
// may still be completing its handshake; use Established/Recv as needed.
func (ln *Listener) Accept(timeout time.Duration) (*Conn, error) {
	var tc <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout) //iqlint:ignore timeafterloop -- per-call accept deadline blocking on channel receive, not a protocol timer
		defer t.Stop()
		tc = t.C
	}
	select {
	case c := <-ln.accept:
		return c, nil
	case <-tc:
		return nil, ErrTimeout
	case <-ln.closed:
		return nil, ErrClosed
	}
}

// Addr returns the bound address.
func (ln *Listener) Addr() net.Addr { return ln.sock.LocalAddr() }

// Close shuts the listener and every accepted connection down. Connections
// close concurrently: a serial sweep would stack up linger timeouts when
// peers have already vanished.
func (ln *Listener) Close() error {
	ln.once.Do(func() {
		close(ln.closed)
		ln.sock.Close()
		ln.mu.Lock()
		conns := make([]*Conn, 0, len(ln.conns))
		for _, c := range ln.conns {
			conns = append(conns, c)
		}
		ln.mu.Unlock()
		var wg sync.WaitGroup
		for _, c := range conns {
			wg.Add(1)
			go func(c *Conn) {
				defer wg.Done()
				c.Close()
			}(c)
		}
		wg.Wait()
	})
	return nil
}
