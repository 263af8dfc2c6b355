package serve

import (
	"net"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/udpwire"
	"github.com/cercs/iqrudp/internal/uio"
)

// rawClient drives the wire protocol by hand from an arbitrary UDP socket,
// letting tests control the source address packet by packet.
type rawClient struct {
	t    *testing.T
	sock *net.UDPConn
	dst  *net.UDPAddr
}

func newRawClient(t *testing.T, dst net.Addr) *rawClient {
	t.Helper()
	return newRawClientOn(t, net.IPv4(127, 0, 0, 1), dst)
}

// newRawClientOn is newRawClient with its socket bound to local.
func newRawClientOn(t *testing.T, local net.IP, dst net.Addr) *rawClient {
	t.Helper()
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: local})
	if err != nil {
		t.Fatalf("raw client socket: %v", err)
	}
	t.Cleanup(func() { sock.Close() })
	ua, err := net.ResolveUDPAddr("udp", dst.String())
	if err != nil {
		t.Fatalf("resolve %v: %v", dst, err)
	}
	return &rawClient{t: t, sock: sock, dst: ua}
}

func (rc *rawClient) send(p *packet.Packet) {
	rc.t.Helper()
	b, err := packet.Encode(p)
	if err != nil {
		rc.t.Fatalf("encode %v: %v", p, err)
	}
	if _, err := rc.sock.WriteToUDP(b, rc.dst); err != nil {
		rc.t.Fatalf("send %v: %v", p, err)
	}
}

// waitFor reads until a packet of the wanted type arrives (ack echoes and
// retransmissions may interleave) or the deadline passes.
func (rc *rawClient) waitFor(want packet.Type, timeout time.Duration) *packet.Packet {
	rc.t.Helper()
	buf := make([]byte, 65536)
	if err := rc.sock.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		rc.t.Fatalf("set read deadline: %v", err)
	}
	defer rc.sock.SetReadDeadline(time.Time{}) //iqlint:ignore errdrop -- test cleanup, socket may already be closed
	for {
		n, _, err := rc.sock.ReadFromUDP(buf)
		if err != nil {
			rc.t.Fatalf("waiting for %v: %v", want, err)
		}
		p, err := packet.Decode(buf[:n])
		if err != nil {
			continue
		}
		if p.Type == want {
			return p
		}
	}
}

// awaitMigrations waits until the engine has counted want migrations. The
// shard re-keys its address table and counts a migration after the
// connection has handled the packet that moved it, so a delivery can be
// observed a moment before the bookkeeping.
func awaitMigrations(t *testing.T, srv *Server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Migrations < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := srv.Stats().Migrations; got != want {
		t.Fatalf("migrations = %d, want %d", got, want)
	}
}

// addrKeyed reports whether addr maps to id in the shard's byAddr table.
func addrKeyed(sh *shard, addr *net.UDPAddr, id uint32) bool {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	got, ok := sh.byAddr[uio.Canonical(addr.AddrPort())]
	return ok && got == id
}

// TestPeerMigration exercises the tentpole's ConnID demux: a client whose
// UDP source port changes mid-stream keeps its connection, and the old
// address entry is reaped from the demux table.
func TestPeerMigration(t *testing.T) {
	const connID = 77
	srv := startServer(t, Options{Shards: 2, DrainTimeout: time.Second})
	home := srv.homeShard(connID)

	// Handshake from the first source socket.
	c1 := newRawClient(t, srv.Addr())
	c1.send(&packet.Packet{Type: packet.SYN, ConnID: connID, Seq: 100, Wnd: 64})
	synack := c1.waitFor(packet.SYNACK, 5*time.Second)

	sc, err := srv.Accept(5 * time.Second)
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	c1.send(&packet.Packet{
		Type: packet.ACK, ConnID: connID,
		Seq: 101, Ack: synack.Seq + 1, Wnd: 64,
	})

	// First DATA from the original address.
	c1.send(&packet.Packet{
		Type: packet.DATA, ConnID: connID, Flags: packet.FlagMarked | packet.FlagMsgEnd,
		Seq: 101, Ack: synack.Seq + 1, Wnd: 64, MsgID: 1, FragCnt: 1,
		Payload: []byte("before rebind"),
	})
	msg, err := sc.Recv(5 * time.Second)
	if err != nil || string(msg.Data) != "before rebind" {
		t.Fatalf("first Recv = %q, %v", msg.Data, err)
	}

	addr1 := c1.sock.LocalAddr().(*net.UDPAddr)
	if !addrKeyed(home, addr1, connID) {
		t.Fatalf("no byAddr entry for original address %v", addr1)
	}

	// Same ConnID, new source socket: a NAT rebind. The next DATA must reach
	// the same connection and migrate its peer address.
	c2 := newRawClient(t, srv.Addr())
	c2.send(&packet.Packet{
		Type: packet.DATA, ConnID: connID, Flags: packet.FlagMarked | packet.FlagMsgEnd,
		Seq: 102, Ack: synack.Seq + 1, Wnd: 64, MsgID: 2, FragCnt: 1,
		Payload: []byte("after rebind"),
	})
	msg, err = sc.Recv(5 * time.Second)
	if err != nil || string(msg.Data) != "after rebind" {
		t.Fatalf("post-migration Recv = %q, %v", msg.Data, err)
	}

	addr2 := c2.sock.LocalAddr().(*net.UDPAddr)
	if got := sc.RemoteAddr().String(); got != addr2.String() {
		t.Fatalf("RemoteAddr = %v, want migrated %v", got, addr2)
	}
	awaitMigrations(t, srv, 1)
	if addrKeyed(home, addr1, connID) {
		t.Fatalf("stale byAddr entry for %v not reaped", addr1)
	}
	if !addrKeyed(home, addr2, connID) {
		t.Fatalf("no byAddr entry for migrated address %v", addr2)
	}
	// The ack for the migrated DATA must go to the new address.
	c2.waitFor(packet.ACK, 5*time.Second)
}

// TestSynCollisionRefused: a SYN reusing an established ConnID from a
// different host must be refused with RST, not hijack the connection.
func TestSynCollisionRefused(t *testing.T) {
	const connID = 91
	srv := startServer(t, Options{Shards: 2, DrainTimeout: time.Second})

	c1 := newRawClient(t, srv.Addr())
	c1.send(&packet.Packet{Type: packet.SYN, ConnID: connID, Seq: 10, Wnd: 64})
	c1.waitFor(packet.SYNACK, 5*time.Second)
	sc, err := srv.Accept(5 * time.Second)
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}

	c2 := newRawClient(t, srv.Addr())
	c2.send(&packet.Packet{Type: packet.SYN, ConnID: connID, Seq: 500, Wnd: 64})
	rst := c2.waitFor(packet.RST, 5*time.Second)
	if rst.ConnID != connID {
		t.Fatalf("RST ConnID = %d, want %d", rst.ConnID, connID)
	}
	if sc.Closed() {
		t.Fatal("established connection was torn down by the colliding SYN")
	}
	if got := srv.Stats().Refused; got != 1 {
		t.Fatalf("refused = %d, want 1", got)
	}
}

// TestZombieEviction: a new SYN with a new ConnID from an address hosting a
// stale connection evicts the zombie and admits the successor.
func TestZombieEviction(t *testing.T) {
	srv := startServer(t, Options{Shards: 1, DrainTimeout: time.Second})

	c := newRawClient(t, srv.Addr())
	c.send(&packet.Packet{Type: packet.SYN, ConnID: 11, Seq: 10, Wnd: 64})
	c.waitFor(packet.SYNACK, 5*time.Second)
	old, err := srv.Accept(5 * time.Second)
	if err != nil {
		t.Fatalf("Accept old: %v", err)
	}

	// Client "restarts" from the same socket with a fresh ConnID. Eviction
	// is destructive, so the engine answers the cookie-less SYN with a
	// RETRY challenge instead of evicting; nothing changes until the
	// client proves it owns the source address by echoing the cookie.
	c.send(&packet.Packet{Type: packet.SYN, ConnID: 12, Seq: 10, Wnd: 64})
	retry := c.waitFor(packet.RETRY, 5*time.Second)
	if len(retry.Payload) == 0 {
		t.Fatal("RETRY carried no cookie")
	}
	if old.Closed() {
		t.Fatal("un-cookied SYN evicted the predecessor")
	}
	if got := srv.Stats().EvictDenied; got != 1 {
		t.Fatalf("evict denied = %d, want 1", got)
	}
	c.send(&packet.Packet{Type: packet.SYN, ConnID: 12, Seq: 10, Wnd: 64,
		Payload: packet.AppendCookieBlock(nil, retry.Payload)})
	c.waitFor(packet.SYNACK, 5*time.Second)
	fresh, err := srv.Accept(5 * time.Second)
	if err != nil {
		t.Fatalf("Accept fresh: %v", err)
	}
	if fresh.ID() != 12 {
		t.Fatalf("fresh conn ID = %d, want 12", fresh.ID())
	}

	deadline := time.Now().Add(5 * time.Second)
	for !old.Closed() {
		if time.Now().After(deadline) {
			t.Fatal("zombie connection not evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if srv.Conns() != 1 {
		t.Fatalf("Conns = %d, want 1 after eviction", srv.Conns())
	}
}

// handshake drives c through SYN/SYNACK/ACK for connID and one marked DATA
// message, returning the accepted connection, the next DATA sequence number
// and the ack number the client's packets carry.
func (rc *rawClient) handshake(srv *Server, connID uint32) (sc *udpwire.Conn, seq, ack uint32) {
	rc.t.Helper()
	rc.send(&packet.Packet{Type: packet.SYN, ConnID: connID, Seq: 100, Wnd: 64})
	synack := rc.waitFor(packet.SYNACK, 5*time.Second)
	sc, err := srv.Accept(5 * time.Second)
	if err != nil {
		rc.t.Fatalf("Accept: %v", err)
	}
	ack = synack.Seq + 1
	rc.send(&packet.Packet{Type: packet.ACK, ConnID: connID, Seq: 101, Ack: ack, Wnd: 64})
	rc.data(sc, connID, 101, ack, "hello")
	return sc, 102, ack
}

// data sends one single-fragment marked message and waits for sc to
// deliver it.
func (rc *rawClient) data(sc *udpwire.Conn, connID, seq, ack uint32, body string) {
	rc.t.Helper()
	rc.send(&packet.Packet{
		Type: packet.DATA, ConnID: connID, Flags: packet.FlagMarked | packet.FlagMsgEnd,
		Seq: seq, Ack: ack, Wnd: 64, MsgID: seq, FragCnt: 1, Payload: []byte(body),
	})
	msg, err := sc.Recv(5 * time.Second)
	if err != nil || string(msg.Data) != body {
		rc.t.Fatalf("Recv = %q, %v; want %q", msg.Data, err, body)
	}
}

// TestCanonicalPeerAddress: on a dual-stack engine socket an IPv4 peer
// arrives as a v4-mapped IPv6 source. It must key the demux tables and
// report RemoteAddr in the same plain IPv4 form the peer's own socket uses,
// so its packets resolve to one connection with no migration counted. A
// real source-port change still migrates, and IPv6 peers keep their form.
func TestCanonicalPeerAddress(t *testing.T) {
	srv, err := Listen("[::]:0", testConfig(), Options{Shards: 1, DrainTimeout: time.Second})
	if err != nil {
		t.Skipf("no dual-stack socket: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	port := srv.Addr().(*net.UDPAddr).Port
	home := srv.homeShard(0)
	v4dst := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port}

	const connID = 0x40
	c1 := newRawClient(t, v4dst)
	sc, seq, ack := c1.handshake(srv, connID)
	c1.data(sc, connID, seq, ack, "again")
	addr1 := c1.sock.LocalAddr().(*net.UDPAddr)
	if got := sc.RemoteAddr().String(); got != addr1.String() {
		t.Fatalf("RemoteAddr = %q, want %q (plain IPv4)", got, addr1)
	}
	if !addrKeyed(home, addr1, connID) {
		t.Fatalf("no byAddr entry for the plain IPv4 form %v", addr1)
	}
	if got := srv.Stats().Migrations; got != 0 {
		t.Fatalf("migrations = %d after packets from one v4-mapped source, want 0", got)
	}

	c2 := newRawClient(t, v4dst)
	c2.data(sc, connID, seq+1, ack, "rebound")
	addr2 := c2.sock.LocalAddr().(*net.UDPAddr)
	awaitMigrations(t, srv, 1)
	if got := sc.RemoteAddr().String(); got != addr2.String() {
		t.Fatalf("RemoteAddr = %q after migration, want %q", got, addr2)
	}
	if addrKeyed(home, addr1, connID) || !addrKeyed(home, addr2, connID) {
		t.Fatal("migration did not re-key the address table")
	}

	c6 := newRawClientOn(t, net.IPv6loopback, &net.UDPAddr{IP: net.IPv6loopback, Port: port})
	sc6, _, _ := c6.handshake(srv, connID+1)
	if got, want := sc6.RemoteAddr().String(), c6.sock.LocalAddr().String(); got != want {
		t.Fatalf("IPv6 RemoteAddr = %q, want %q", got, want)
	}
}
