package attr

// Standard attribute names. The ADAPT_* names are the application→transport
// adaptation descriptors from the paper (§2.3.2); the NET_* names are the
// transport→application network-metric exports (§2.1).
const (
	// AdaptFreq describes a frequency adaptation: the application now sends
	// messages at Value (float) times the previous frequency (e.g. 0.5 means
	// half as often). Frequency adaptations require no transport window
	// change (paper §3.4).
	AdaptFreq = "ADAPT_FREQ"

	// AdaptMark describes a reliability adaptation: the application has
	// changed its packet-marking policy; Value (float) is the probability
	// that a non-control packet is sent unmarked (droppable). Zero cancels
	// the adaptation.
	AdaptMark = "ADAPT_MARK"

	// AdaptPktSize describes a resolution adaptation: the application reduced
	// its frame size by rate_chg = Value (float in [0,1)); the coordinated
	// transport grows its packet window to 1/(1−rate_chg) of its current
	// value while frames are smaller than the max segment size. Negative
	// values describe frame-size increases.
	AdaptPktSize = "ADAPT_PKTSIZE"

	// AdaptWhen indicates whether/when a triggered adaptation will actually
	// be performed: Value (int) is the number of application frames until the
	// adaptation takes effect (0 = immediately, −1 = will not adapt).
	AdaptWhen = "ADAPT_WHEN"

	// AdaptCond carries the network condition the application based its
	// adaptation on: Value (float) is the error ratio observed when the
	// adaptation was triggered. With coordination the transport corrects for
	// the network change during the delay (paper Eq. 1).
	AdaptCond = "ADAPT_COND"

	// AdaptCondRate optionally accompanies AdaptCond with the average data
	// rate (bytes/s) at trigger time.
	AdaptCondRate = "ADAPT_COND_RATE"

	// NetLoss is the transport's current measured error ratio in [0,1].
	NetLoss = "NET_LOSS"

	// NetRTT is the smoothed round-trip time in seconds.
	NetRTT = "NET_RTT"

	// NetRate is the current delivery rate in bytes per second.
	NetRate = "NET_RATE"

	// NetCwnd is the current congestion window in packets.
	NetCwnd = "NET_CWND"

	// NetRetrans is the cumulative number of retransmissions.
	NetRetrans = "NET_RETRANS"

	// LossTolerance is the receiver's declared tolerance for lost unmarked
	// traffic, a fraction in [0,1]; exchanged at connection setup and
	// adjustable at runtime.
	LossTolerance = "LOSS_TOLERANCE"

	// Marked labels a message that must be delivered reliably. Messages
	// without it (or with it false) may be dropped within the receiver's
	// loss tolerance.
	Marked = "MARKED"

	// Deadline optionally carries a per-message delivery deadline in seconds
	// from send time (used by rate-based applications, Table 8).
	Deadline = "DEADLINE"

	// FECGroup is the receiver's declared FEC repair-group preference: Value
	// (int) is the largest group size K (data packets per repair packet) it
	// wants to decode, 0 or absent meaning FEC is not supported. Exchanged
	// at connection setup like LossTolerance; the sender emits repair
	// packets only when the peer advertised a positive value, and adapts K
	// downward from this ceiling as measured loss grows.
	FECGroup = "FEC_GROUP"
)

// reserved is the reserved vocabulary in declaration order. Names hands out
// copies; Decode interns wire names against it.
var reserved = [...]string{
	AdaptFreq, AdaptMark, AdaptPktSize, AdaptWhen, AdaptCond, AdaptCondRate,
	NetLoss, NetRTT, NetRate, NetCwnd, NetRetrans,
	LossTolerance, Marked, Deadline, FECGroup,
}

// Names lists every reserved attribute name declared above. The attribute
// vocabulary is open — applications publish their own keys freely — but
// these names are claimed by the transport, and the tracekeys analyzer
// rejects raw string literals spelling them (a typo'd reserved key is
// published but never matched). Tests and tooling use this list to
// validate captured attribute sets.
func Names() []string { return append([]string(nil), reserved[:]...) }

// intern returns the reserved name spelled by b, so decoding a transport
// attribute allocates no string; any other name is copied out of b.
func intern(b []byte) string {
	for _, name := range reserved {
		if string(b) == name {
			return name
		}
	}
	return string(b)
}
