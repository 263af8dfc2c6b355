package guard

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/race"
)

// mint returns a cookie for (addr, connID) as a slice.
func mint(s *CookieSource, addr netip.AddrPort, connID uint32, now time.Time) []byte {
	var c [CookieLen]byte
	s.MintInto(&c, addr, connID, now)
	return c[:]
}

func TestCookieMintVerify(t *testing.T) {
	s := NewCookieSource(10 * time.Second)
	now := time.Now()
	addr := netip.MustParseAddrPort("127.0.0.1:4242")
	c := mint(s, addr, 7, now)
	if !s.VerifyAddr(c, addr, 7, now) {
		t.Fatal("fresh cookie rejected")
	}
	if !s.VerifyAddr(c, addr, 7, now.Add(9*time.Second)) {
		t.Fatal("cookie rejected within lifetime")
	}
}

// TestCookieMACIsHMACSHA256 recomputes minted cookies independently: with
// a known secret in the signing slot, every cookie — the first and those
// after the slot's HMAC has been Reset and reused — carries
// HMAC-SHA256(secret, srcIP16 ‖ port ‖ connID ‖ expiry) truncated to 16
// bytes, for IPv4 (v4-mapped) and IPv6 sources.
func TestCookieMACIsHMACSHA256(t *testing.T) {
	s := NewCookieSource(10 * time.Second)
	key := []byte("a known cookie secret, 32 bytes!")
	s.macs[s.cur] = hmac.New(sha256.New, key)
	now := time.Now()
	for i, addr := range []netip.AddrPort{
		netip.MustParseAddrPort("127.0.0.1:4242"),
		netip.MustParseAddrPort("[2001:db8::7]:9"),
		netip.MustParseAddrPort("127.0.0.1:4242"),
	} {
		c := mint(s, addr, uint32(100+i), now)
		var msg [26]byte
		ip := addr.Addr().As16()
		copy(msg[:16], ip[:])
		binary.BigEndian.PutUint16(msg[16:], addr.Port())
		binary.BigEndian.PutUint32(msg[18:], uint32(100+i))
		copy(msg[22:], c[1:5]) // expiry
		mac := hmac.New(sha256.New, key)
		mac.Write(msg[:])
		if want := mac.Sum(nil)[:16]; !bytes.Equal(c[5:], want) {
			t.Fatalf("cookie %d for %v: MAC %x, want HMAC-SHA256 %x", i, addr, c[5:], want)
		}
	}
}

// TestCookieNetFormsAgree pins the *net.UDPAddr wrappers to the netip
// forms: a cookie minted through either verifies through the other, for a
// 4-byte, a 16-byte v4-mapped and an IPv6 address alike.
func TestCookieNetFormsAgree(t *testing.T) {
	s := NewCookieSource(10 * time.Second)
	now := time.Now()
	for _, ua := range []*net.UDPAddr{
		{IP: net.IP{127, 0, 0, 1}, Port: 4242},
		{IP: net.IPv4(127, 0, 0, 1), Port: 4242},
		{IP: net.ParseIP("2001:db8::7"), Port: 9},
	} {
		ap := netip.AddrPortFrom(netip.MustParseAddr(ua.IP.String()), uint16(ua.Port))
		c := s.Mint(ua, 3, now)
		if len(c) != CookieLen {
			t.Fatalf("%v: cookie length %d, want %d", ua, len(c), CookieLen)
		}
		if !s.VerifyAddr(c, ap, 3, now) {
			t.Fatalf("%v: net-minted cookie rejected by VerifyAddr", ua)
		}
		if !s.Verify(mint(s, ap, 3, now), ua, 3, now) {
			t.Fatalf("%v: netip-minted cookie rejected by Verify", ua)
		}
	}
}

func TestCookieBindsAddrAndConnID(t *testing.T) {
	s := NewCookieSource(10 * time.Second)
	now := time.Now()
	addr := netip.MustParseAddrPort("127.0.0.1:4242")
	c := mint(s, addr, 7, now)

	if s.VerifyAddr(c, netip.MustParseAddrPort("127.0.0.2:4242"), 7, now) {
		t.Fatal("cookie verified for a different source IP")
	}
	if s.VerifyAddr(c, netip.MustParseAddrPort("127.0.0.1:4243"), 7, now) {
		t.Fatal("cookie verified for a different source port")
	}
	if s.VerifyAddr(c, addr, 8, now) {
		t.Fatal("cookie verified for a different ConnID")
	}

	// Bit flips anywhere must fail.
	for i := range c {
		mut := append([]byte(nil), c...)
		mut[i] ^= 0x80
		if s.VerifyAddr(mut, addr, 7, now) {
			t.Fatalf("mutated cookie (byte %d) verified", i)
		}
	}
	if s.VerifyAddr(c[:CookieLen-1], addr, 7, now) || s.VerifyAddr(nil, addr, 7, now) {
		t.Fatal("truncated cookie verified")
	}
}

func TestCookieExpiryAndRotation(t *testing.T) {
	s := NewCookieSource(5 * time.Second)
	now := time.Now()
	addr := netip.MustParseAddrPort("10.0.0.9:1")
	c := mint(s, addr, 1, now)
	if s.VerifyAddr(c, addr, 1, now.Add(6*time.Second)) {
		t.Fatal("expired cookie verified")
	}

	// A cookie minted just before a rotation still verifies after it: the
	// previous secret stays live for one more lifetime.
	c2 := mint(s, addr, 2, now)
	c3 := mint(s, addr, 3, now.Add(5*time.Second)) // triggers rotation
	if c3[0] == c2[0] {
		t.Fatal("rotation did not switch the signing slot")
	}
	if !s.VerifyAddr(c2, addr, 2, now.Add(4*time.Second)) {
		t.Fatal("pre-rotation cookie rejected within lifetime")
	}
	if !s.VerifyAddr(c3, addr, 3, now.Add(5*time.Second)) {
		t.Fatal("post-rotation cookie rejected")
	}
	// A second rotation retires the first secret: c2's slot now holds a
	// fresh key, so c2 no longer verifies even inside its expiry.
	_ = mint(s, addr, 4, now.Add(10*time.Second))
	if s.VerifyAddr(c2, addr, 2, now.Add(4*time.Second)) {
		t.Fatal("cookie verified under a retired secret")
	}
}

// TestCookieSteadyStateZeroAlloc pins the reusable per-slot MACs: once a
// slot's HMAC has been used, minting and verifying allocate nothing — also
// after a rotation, for the new signing slot and for a cookie from the
// previous one.
func TestCookieSteadyStateZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := NewCookieSource(5 * time.Second)
	now := time.Now()
	addr := netip.MustParseAddrPort("192.0.2.1:4433")
	var c, old [CookieLen]byte
	run := func(at time.Time) float64 {
		return testing.AllocsPerRun(200, func() {
			s.MintInto(&c, addr, 9, at)
			if !s.VerifyAddr(c[:], addr, 9, at) {
				t.Fatal("fresh cookie rejected")
			}
		})
	}
	if n := run(now); n != 0 {
		t.Fatalf("Mint+Verify allocate %.1f per cookie, want 0", n)
	}
	old = c
	later := now.Add(5 * time.Second)
	s.MintInto(&c, addr, 9, later) // rotates: rebuilds one slot's HMAC
	if c[0] == old[0] {
		t.Fatal("rotation did not switch the signing slot")
	}
	if n := run(later); n != 0 {
		t.Fatalf("Mint+Verify allocate %.1f per cookie after rotation, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if !s.VerifyAddr(old[:], addr, 9, later) {
			t.Fatal("pre-rotation cookie rejected")
		}
	}); n != 0 {
		t.Fatalf("verifying under the previous secret allocates %.1f, want 0", n)
	}
}

// TestCookieConcurrent mints and verifies from several goroutines sharing
// one source (as serve shards do) while another rotates the secret: the
// per-slot MAC state and scratch buffers are shared under the source mutex,
// so every fresh cookie must verify and none may verify for another ConnID.
func TestCookieConcurrent(t *testing.T) {
	const (
		workers = 4
		perW    = 500
	)
	s := NewCookieSource(5 * time.Second)
	now := time.Now()
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			addr := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(w), 1}), uint16(1000+w))
			var c [CookieLen]byte
			for i := 0; i < perW; i++ {
				id := uint32(w*perW + i)
				s.MintInto(&c, addr, id, now)
				if !s.VerifyAddr(c[:], addr, id, now) {
					errs <- "fresh cookie rejected"
					return
				}
				if s.VerifyAddr(c[:], addr, id+1, now) {
					errs <- "cookie verified for another ConnID"
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // one rotation mid-run: it rekeys the slot nobody signs with
		defer wg.Done()
		var c [CookieLen]byte
		s.MintInto(&c, netip.MustParseAddrPort("192.0.2.9:9"), 1, now.Add(5*time.Second))
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestLedgerAndGovernor(t *testing.T) {
	l := &Ledger{}
	g := NewGovernor(l, 1000)
	if g.Level() != 0 {
		t.Fatalf("empty ledger level %d", g.Level())
	}
	l.Add(ClassSend, 700)
	if g.Level() != 1 {
		t.Fatalf("at 70%%: level %d, want 1", g.Level())
	}
	l.Add(ClassOOO, 150)
	if g.Level() != 2 {
		t.Fatalf("at 85%%: level %d, want 2", g.Level())
	}
	l.Add(ClassReasm, 100)
	if g.Level() != 3 {
		t.Fatalf("at 95%%: level %d, want 3", g.Level())
	}
	l.Sub(ClassSend, 700)
	l.Sub(ClassOOO, 150)
	l.Sub(ClassReasm, 100)
	if l.Total() != 0 || g.Level() != 0 {
		t.Fatalf("drained ledger total=%d level=%d", l.Total(), g.Level())
	}
	// Teardown races may overshoot; balances clamp to zero for consumers.
	l.Sub(ClassConn, 64)
	if l.Total() != 0 || l.Bytes(ClassConn) != 0 {
		t.Fatalf("negative balance leaked: total=%d", l.Total())
	}
	if NewGovernor(l, 0) != nil || (*Governor)(nil).Level() != 0 {
		t.Fatal("disabled governor not inert")
	}
}

func TestTokenBucket(t *testing.T) {
	now := time.Now()
	b := NewTokenBucket(10, 5)
	for i := 0; i < 5; i++ {
		if !b.Allow(now) {
			t.Fatalf("burst token %d denied", i)
		}
	}
	if b.Allow(now) {
		t.Fatal("token past burst allowed")
	}
	if !b.Allow(now.Add(100 * time.Millisecond)) {
		t.Fatal("refilled token denied")
	}
	if (*TokenBucket)(nil).Allow(now) != true {
		t.Fatal("nil bucket must be unlimited")
	}
}

func TestPrefixLimiter(t *testing.T) {
	now := time.Now()
	pl := NewPrefixLimiter(2, 8)
	a := netip.MustParseAddr("127.1.1.1")
	b := netip.MustParseAddr("127.1.1.200") // same /24
	c := netip.MustParseAddr("127.1.2.1")   // different /24
	if !pl.AllowAddr(a, now) || !pl.AllowAddr(b, now) {
		t.Fatal("burst denied")
	}
	if pl.AllowAddr(a, now) {
		t.Fatal("third SYN from flooded /24 allowed")
	}
	if pl.Allow(net.IPv4(127, 1, 1, 9), now) {
		t.Fatal("net.IP form escaped the flooded /24's bucket")
	}
	if !pl.AllowAddr(c, now) {
		t.Fatal("neighbouring /24 penalised")
	}
	if Prefix(a) != Prefix(b) || Prefix(a) == Prefix(c) {
		t.Fatal("prefix keying wrong")
	}
	if Prefix(a) != Prefix(netip.AddrFrom16(a.As16())) {
		t.Fatal("v4-mapped address keyed apart from its IPv4 form")
	}
	v6a, v6b := netip.MustParseAddr("2001:db8:1:2::1"), netip.MustParseAddr("2001:db8:1:3::1")
	if Prefix(v6a) != Prefix(v6b) {
		t.Fatal("v6 /48 keying wrong") // same /48, different subnet
	}
	if Prefix(v6a) == Prefix(netip.MustParseAddr("2001:db8:2::1")) {
		t.Fatal("different v6 /48s share a key")
	}
	// A /24 and a /48 whose leading bytes agree must not share a bucket.
	if Prefix(netip.MustParseAddr("32.1.13.1")) == Prefix(netip.MustParseAddr("2001:db8::1")) {
		t.Fatal("IPv4 and IPv6 prefixes collide")
	}

	// Table stays bounded under prefix-rotating floods.
	for i := 0; i < 100; i++ {
		pl.AllowAddr(netip.AddrFrom4([4]byte{10, byte(i), byte(i * 3), 1}), now)
	}
	pl.mu.Lock()
	n := len(pl.buckets)
	pl.mu.Unlock()
	if n > 8 {
		t.Fatalf("bucket table grew to %d entries (max 8)", n)
	}
}
