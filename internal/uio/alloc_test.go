package uio

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/race"
)

// TestSteadyStateZeroAlloc pins the batchers' allocation budget: once the
// pool is warm, a Send of one batch plus the Recv/Release calls that drain
// it allocate nothing — no per-datagram source address, no per-syscall
// closure, no boxed pool entry. Both the serve shape (unconnected sockets,
// addressed messages) and the dialed shape (connected sockets, zero Addr)
// run on the plain path, and on the GSO/GRO path where the host offers it.
func TestSteadyStateZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items under -race")
	}
	off := ProbeOffload()
	for _, tc := range []struct {
		name      string
		connected bool
		offload   bool
	}{
		{"plain", false, false},
		{"plain-connected", true, false},
		{"offload", false, true},
		{"offload-connected", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.offload && !(off.GSO && off.GRO) {
				t.Skipf("host offload support: gso=%v gro=%v", off.GSO, off.GRO)
			}
			tx, rx := loopbackPair(t)
			dst := rx.LocalAddr().(*net.UDPAddr).AddrPort()
			newRx := NewRxBatcher
			if tc.connected {
				c, err := net.DialUDP("udp", nil, rx.LocalAddr().(*net.UDPAddr))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				tx, dst = c, netip.AddrPort{}
				if err := rx.Close(); err != nil {
					t.Fatal(err)
				}
				// The receiver is connected back to the sender, as a dialed
				// connection's socket is to its server.
				if rx, err = net.DialUDP("udp", c.RemoteAddr().(*net.UDPAddr), c.LocalAddr().(*net.UDPAddr)); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { rx.Close() })
				newRx = NewConnectedRxBatcher
			}
			const batch = 32
			tb, err := NewTxBatcher(tx, batch)
			if err != nil {
				t.Fatal(err)
			}
			size := 2048
			if tc.offload {
				size = GROBufSize
			}
			rb, err := newRx(rx, NewBufPool(size), batch)
			if err != nil {
				t.Fatal(err)
			}
			if tc.offload {
				if !tb.GSOEnabled() || !rb.EnableGRO() {
					t.Fatal("ProbeOffload reports GSO/GRO but the batchers refused it")
				}
			} else {
				tb.SetGSO(false)
			}
			msgs := make([]Msg, batch)
			for i := range msgs {
				msgs[i] = Msg{B: make([]byte, 64), Addr: dst}
			}
			src := tx.LocalAddr().(*net.UDPAddr).AddrPort()
			if tc.connected {
				src = netip.AddrPort{} // the kernel filters to the peer
			}
			if err := rx.SetReadDeadline(time.Now().Add(time.Minute)); err != nil {
				t.Fatal(err)
			}
			round := func() {
				n, err := tb.Send(msgs)
				if err != nil || n != len(msgs) {
					t.Fatalf("Send = %d, %v", n, err)
				}
				for got := 0; got < n; {
					in, err := rb.Recv()
					if err != nil {
						t.Fatalf("Recv after %d/%d: %v", got, n, err)
					}
					for _, m := range in {
						if m.Addr != src {
							t.Fatalf("source %v, want %v", m.Addr, src)
						}
					}
					got += len(in)
					rb.Release(in)
				}
			}
			for i := 0; i < 8; i++ {
				round() // warm the pool
			}
			if avg := testing.AllocsPerRun(200, round); avg != 0 {
				t.Fatalf("steady-state Send+Recv+Release allocates %.2f per batch of %d, want 0", avg, batch)
			}
		})
	}
}

// TestRecvCanonicalSource: an IPv4 peer reaching a dual-stack (AF_INET6)
// socket arrives as a v4-mapped sockaddr; the batcher must report it in
// plain IPv4 form, equal to the address an AF_INET socket would report, so
// demux tables keyed on Msg.Addr see one peer. IPv6 sources pass through.
func TestRecvCanonicalSource(t *testing.T) {
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv6unspecified})
	if err != nil {
		t.Skipf("no dual-stack socket: %v", err)
	}
	defer rx.Close()
	port := rx.LocalAddr().(*net.UDPAddr).Port
	rb, err := NewRxBatcher(rx, NewBufPool(2048), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := rx.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"127.0.0.1", "::1"} {
		tx, err := net.DialUDP("udp", &net.UDPAddr{IP: net.ParseIP(src)}, &net.UDPAddr{IP: net.ParseIP(src), Port: port})
		if err != nil {
			t.Logf("skip %s source: %v", src, err)
			continue
		}
		want := tx.LocalAddr().(*net.UDPAddr).AddrPort()
		if _, err := tx.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
		msgs, err := rb.Recv()
		tx.Close()
		if err != nil {
			t.Fatal(err)
		}
		got := msgs[0].Addr
		rb.Release(msgs)
		if got != Canonical(want) || got.Addr().Is4In6() {
			t.Fatalf("source %s: Recv reported %v, want %v", src, got, Canonical(want))
		}
	}
}
