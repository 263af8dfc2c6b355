package guard

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"net"
	"net/netip"
	"sync"
	"time"
)

// Cookie layout: keyID (1) | expiry, unix seconds (4) | MAC (16) = 21 bytes.
// The MAC is HMAC-SHA256 over (source IP, source port, proposed ConnID,
// expiry), truncated; the cookie itself is opaque to the peer, which echoes
// it byte-for-byte inside its next SYN (see packet.AppendCookieBlock).
const (
	cookieKeyLen = 32
	cookieMACLen = 16

	// CookieLen is the fixed minted-cookie length.
	CookieLen = 1 + 4 + cookieMACLen
)

// CookieSource mints and verifies stateless address-validation cookies. Two
// secrets are live at any time — the current one signs, both verify — and
// the older is replaced whenever the current secret's age exceeds the
// lifetime, so a cookie minted just before a rotation still verifies for
// its full validity window. Secrets are random at construction (a restart
// invalidates outstanding cookies, which only costs those dialers one extra
// round trip).
//
// Each secret slot holds one keyed HMAC, built when the slot's secret is
// drawn and Reset before every use. The MAC state, the message and the sum
// are shared scratch guarded by mu, so minting and verifying allocate
// nothing.
type CookieSource struct {
	mu       sync.Mutex
	lifetime time.Duration
	macs     [2]hash.Hash // keyed HMAC-SHA256 per secret slot
	cur      int          // index of the signing slot
	rotated  time.Time    // when macs[cur] became the signing slot
	msg      [16 + 2 + 4 + 4]byte
	sum      [sha256.Size]byte
}

// NewCookieSource builds a source whose cookies are valid for lifetime
// (also the secret-rotation period). Non-positive lifetimes select 15s.
func NewCookieSource(lifetime time.Duration) *CookieSource {
	if lifetime <= 0 {
		lifetime = 15 * time.Second
	}
	s := &CookieSource{lifetime: lifetime, rotated: time.Now()}
	for i := range s.macs {
		s.rekey(i)
	}
	return s
}

// rekey draws a fresh secret for slot i and keys its HMAC with it.
func (s *CookieSource) rekey(i int) {
	var key [cookieKeyLen]byte
	if _, err := rand.Read(key[:]); err != nil {
		panic("guard: no entropy for cookie secrets: " + err.Error())
	}
	s.macs[i] = hmac.New(sha256.New, key[:])
}

// MintInto writes a fresh cookie binding (addr, connID) until now +
// lifetime into dst, rotating the signing secret first if it has aged out.
func (s *CookieSource) MintInto(dst *[CookieLen]byte, addr netip.AddrPort, connID uint32, now time.Time) {
	expiry := uint32(now.Add(s.lifetime).Unix())
	s.mu.Lock()
	defer s.mu.Unlock()
	if now.Sub(s.rotated) >= s.lifetime {
		s.cur ^= 1
		s.rekey(s.cur)
		s.rotated = now
	}
	dst[0] = byte(s.cur)
	binary.BigEndian.PutUint32(dst[1:5], expiry)
	copy(dst[5:], s.macLocked(s.cur, addr, connID, expiry))
}

// VerifyAddr reports whether cookie is an unexpired cookie this source
// minted for (addr, connID).
func (s *CookieSource) VerifyAddr(cookie []byte, addr netip.AddrPort, connID uint32, now time.Time) bool {
	if len(cookie) != CookieLen || cookie[0] > 1 {
		return false
	}
	expiry := binary.BigEndian.Uint32(cookie[1:5])
	if now.Unix() > int64(expiry) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return hmac.Equal(cookie[5:], s.macLocked(int(cookie[0]), addr, connID, expiry))
}

// macLocked computes slot's truncated MAC over (addr, connID, expiry) into
// the source's scratch sum and returns it. The address enters as its
// 16-byte form (IPv4 v4-mapped). Called with mu held.
func (s *CookieSource) macLocked(slot int, addr netip.AddrPort, connID uint32, expiry uint32) []byte {
	ip := addr.Addr().As16()
	copy(s.msg[:16], ip[:])
	binary.BigEndian.PutUint16(s.msg[16:], addr.Port())
	binary.BigEndian.PutUint32(s.msg[18:], connID)
	binary.BigEndian.PutUint32(s.msg[22:], expiry)
	mac := s.macs[slot]
	mac.Reset()
	mac.Write(s.msg[:])
	return mac.Sum(s.sum[:0])[:cookieMACLen]
}

// Mint is MintInto for callers holding a *net.UDPAddr, returning the cookie
// in a fresh slice (perfbench's guard ledger times this form).
func (s *CookieSource) Mint(addr *net.UDPAddr, connID uint32, now time.Time) []byte {
	var c [CookieLen]byte
	s.MintInto(&c, addr.AddrPort(), connID, now)
	return c[:]
}

// Verify is VerifyAddr for callers holding a *net.UDPAddr.
func (s *CookieSource) Verify(cookie []byte, addr *net.UDPAddr, connID uint32, now time.Time) bool {
	return s.VerifyAddr(cookie, addr.AddrPort(), connID, now)
}
