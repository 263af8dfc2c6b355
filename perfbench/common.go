package main

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Message layout shared by the generator and the sink (little endian):
//
//	[0]      slot: generator connection index
//	[1]      step: load phase the message belongs to
//	[2]      flags: bit 0 = marked, bit 1 = churn-validate message
//	[3]      reserved
//	[4:12]   seq: per-slot sequence number, from 0
//	[12:20]  due: wall-clock Unix nanoseconds the message was due
//	[20:n-4] filler from the workload seed
//	[n-4:n]  CRC-32 (IEEE) of bytes [0, n-4)
const (
	hdrLen     = 20
	minMsgSize = hdrLen + 4
)

type msgHeader struct {
	slot   uint8
	step   uint8
	marked bool
	churn  bool
	seq    uint64
	due    int64
}

var errChecksum = errors.New("payload checksum mismatch")

// fillMsg builds one message into b (len(b) ≥ minMsgSize); filler bytes are
// drawn from rng so the program under test sees seeded, varied payloads.
func fillMsg(b []byte, h msgHeader, rng *rand.Rand) {
	b[0], b[1], b[3] = h.slot, h.step, 0
	b[2] = 0
	if h.marked {
		b[2] |= 1
	}
	if h.churn {
		b[2] |= 2
	}
	binary.LittleEndian.PutUint64(b[4:], h.seq)
	binary.LittleEndian.PutUint64(b[12:], uint64(h.due))
	body := b[hdrLen : len(b)-4]
	for i := 0; i < len(body); i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8 && i+j < len(body); j++ {
			body[i+j] = byte(v >> (8 * j))
		}
	}
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
}

// parseMsg validates and decodes a delivered message.
func parseMsg(b []byte) (msgHeader, error) {
	if len(b) < minMsgSize {
		return msgHeader{}, errChecksum
	}
	if binary.LittleEndian.Uint32(b[len(b)-4:]) != crc32.ChecksumIEEE(b[:len(b)-4]) {
		return msgHeader{}, errChecksum
	}
	return msgHeader{
		slot:   b[0],
		step:   b[1],
		marked: b[2]&1 != 0,
		churn:  b[2]&2 != 0,
		seq:    binary.LittleEndian.Uint64(b[4:]),
		due:    int64(binary.LittleEndian.Uint64(b[12:])),
	}, nil
}

// quantile returns the q-quantile of sorted xs (linear interpolation).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// sortedCopy returns xs sorted, leaving xs as it was.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// cpuTime is this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) for this
// process, so vmHWMMB reports the peak of what runs next.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// vmHWMMB reads this process's peak RSS since the last resetPeakRSS, in MB.
func vmHWMMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return peakRSSMB()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return peakRSSMB()
}

// peakRSSMB is this process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sleepPrecise blocks the calling thread in nanosleep(2). The runtime's own
// timers wake through the network poller at millisecond granularity when the
// process is otherwise idle, which would add up to a millisecond of
// generator lateness to every message at low offered rates. The caller's
// thread should have a small timer slack (see preciseThread).
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}

// latHist is a log-linear latency histogram: 64 buckets per power of two
// (about 1.1% wide) from 1 µs to 17 s. The sink records into it instead of
// keeping every sample, so the harness adds no memory that grows with load.
type latHist struct {
	n      uint64
	counts [latOctaves * latSub]uint64
}

const (
	latMinShift = 10 // 1024 ns
	latOctaves  = 24
	latSub      = 64
)

func latBucket(ns int64) int {
	if ns < 1<<latMinShift {
		return 0
	}
	oct := 63 - bits.LeadingZeros64(uint64(ns)) - latMinShift
	if oct >= latOctaves {
		return latOctaves*latSub - 1
	}
	sub := int(uint64(ns)>>(uint(oct+latMinShift)-6)) & (latSub - 1)
	return oct*latSub + sub
}

// latLow is the lower edge of bucket i in ns.
func latLow(i int) float64 {
	oct, sub := i/latSub, i%latSub
	return math.Ldexp(1+float64(sub)/latSub, oct+latMinShift)
}

func (h *latHist) add(ns int64) {
	h.counts[latBucket(ns)]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	h.n += o.n
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// quantile interpolates linearly inside the bucket holding rank q·(n-1).
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			lo := latLow(i)
			hi := latLow(i + 1)
			return lo + (hi-lo)*(rank-cum+0.5)/float64(c)
		}
		cum += float64(c)
	}
	return latLow(len(h.counts))
}

// quietWindow is the figure of the quieter windows: the 10th percentile of
// the per-window values (lower is better). Host noise only slows a window,
// and the 10th percentile, unlike the minimum, is not set by one window's
// sampling luck.
func quietWindow(xs []float64) float64 { return quantile(sortedCopy(xs), 0.1) }

// preciseThread locks the calling goroutine to its thread and sets the
// thread's timer slack to 1 ns, so nanosleep(2) wakes on time instead of up
// to the default 50 µs late (that slack would otherwise be part of every
// generated message's latency).
func preciseThread() {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
}

// allocObjects is the number of heap objects this process has allocated,
// read without stopping the world.
func allocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
