package core

import "time"

// rttEstimator implements the Jacobson/Karels smoothed RTT and RTO
// computation (srtt, rttvar, rto = srtt + 4·rttvar), bounded by the
// configured minimum and maximum.
type rttEstimator struct {
	srtt    time.Duration
	rttvar  time.Duration
	rto     time.Duration
	min     time.Duration
	max     time.Duration
	sampled bool
	backoff uint // consecutive RTO expirations (exponential backoff shift)
}

func newRTTEstimator(min, max time.Duration) rttEstimator {
	return rttEstimator{min: min, max: max, rto: time.Second}
}

// Sample folds in a new RTT measurement.
func (r *rttEstimator) Sample(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	if !r.sampled {
		r.srtt = rtt
		r.rttvar = rtt / 2
		r.sampled = true
	} else {
		diff := r.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		r.rttvar = (3*r.rttvar + diff) / 4
		r.srtt = (7*r.srtt + rtt) / 8
	}
	r.backoff = 0
	r.recompute()
}

func (r *rttEstimator) recompute() {
	rto := r.srtt + 4*r.rttvar
	if rto < r.min {
		rto = r.min
	}
	rto <<= r.backoff
	if rto > r.max {
		rto = r.max
	}
	r.rto = rto
}

// RTO returns the current retransmission timeout.
func (r *rttEstimator) RTO() time.Duration { return r.rto }

// SRTT returns the smoothed RTT (0 before the first sample).
func (r *rttEstimator) SRTT() time.Duration { return r.srtt }

// RTTVar returns the RTT variance estimate.
func (r *rttEstimator) RTTVar() time.Duration { return r.rttvar }

// Backoff doubles the RTO after an expiration (Karn's backoff), capped.
func (r *rttEstimator) Backoff() {
	if r.backoff < 6 {
		r.backoff++
	}
	r.recompute()
}
