package guard

import (
	"net"
	"net/netip"
	"sync"
	"time"
)

// TokenBucket is a classic token bucket: rate tokens per second, capacity
// burst, one token per Allow. It is mutex-guarded — callers on packet paths
// hold it only for a few arithmetic operations.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// NewTokenBucket builds a bucket refilling at rate/s with capacity burst,
// initially full. Non-positive rate or burst yields a nil bucket (which
// Allow treats as unlimited).
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if rate <= 0 || burst <= 0 {
		return nil
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// Allow consumes one token if available.
func (b *TokenBucket) Allow(now time.Time) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// PrefixLimiter rate-limits by source-address prefix (/24 for IPv4, /48 for
// IPv6) so one flooding subnet cannot monopolise handshake capacity while
// neighbouring prefixes proceed unharmed. The bucket table is bounded: when
// a spoofed flood rotates through more prefixes than maxPrefixes, the table
// resets rather than grows — briefly over-admitting, never leaking (the
// engine's cookie-mode trigger catches that case globally).
type PrefixLimiter struct {
	mu      sync.Mutex
	rate    float64
	max     int
	buckets map[PrefixKey]*TokenBucket
}

// NewPrefixLimiter builds a limiter allowing rate events/s (burst equal to
// one second's rate) per source prefix, tracking at most maxPrefixes.
func NewPrefixLimiter(rate float64, maxPrefixes int) *PrefixLimiter {
	if rate <= 0 {
		return nil
	}
	if maxPrefixes <= 0 {
		maxPrefixes = 4096
	}
	return &PrefixLimiter{rate: rate, max: maxPrefixes, buckets: make(map[PrefixKey]*TokenBucket)}
}

// AllowAddr consumes one token from ip's prefix bucket.
func (pl *PrefixLimiter) AllowAddr(ip netip.Addr, now time.Time) bool {
	if pl == nil {
		return true
	}
	key := Prefix(ip)
	pl.mu.Lock()
	b, ok := pl.buckets[key]
	if !ok {
		if len(pl.buckets) >= pl.max {
			pl.buckets = make(map[PrefixKey]*TokenBucket)
		}
		b = NewTokenBucket(pl.rate, pl.rate)
		pl.buckets[key] = b
	}
	pl.mu.Unlock()
	return b.Allow(now)
}

// Allow is AllowAddr for callers holding a net.IP (perfbench's guard
// ledger times this form). A malformed ip shares the invalid address's
// bucket.
func (pl *PrefixLimiter) Allow(ip net.IP, now time.Time) bool {
	a, _ := netip.AddrFromSlice(ip)
	return pl.AllowAddr(a, now)
}

// PrefixKey is the limiter's fixed-size aggregation key: an address family
// tag followed by the prefix bytes.
type PrefixKey [7]byte

// Prefix returns the limiter's aggregation key for ip: the /24 for IPv4
// (including v4-mapped IPv6), the /48 for IPv6, and the zero key for the
// invalid address.
func Prefix(ip netip.Addr) PrefixKey {
	var k PrefixKey
	ip = ip.Unmap()
	switch {
	case ip.Is4():
		a := ip.As4()
		k[0] = 4
		copy(k[1:], a[:3])
	case ip.Is6():
		a := ip.As16()
		k[0] = 6
		copy(k[1:], a[:6])
	}
	return k
}
