package core

import (
	"testing"
	"testing/quick"
	"time"
)

func ccConfig() *Config {
	cfg := DefaultConfig()
	return &cfg
}

func TestCongestionSlowStartDoubles(t *testing.T) {
	c := newCongestion(ccConfig())
	if c.Window() != 2 {
		t.Fatalf("initial window = %v", c.Window())
	}
	c.OnAck(2, true)
	if c.Window() != 4 {
		t.Fatalf("after 2 acks = %v, want 4 (slow start)", c.Window())
	}
}

func TestCongestionAvoidanceLinear(t *testing.T) {
	cfg := ccConfig()
	c := newCongestion(cfg)
	c.ssthresh = 4
	c.cwnd = 10
	before := c.Window()
	c.OnAck(10, true) // one window of acks → ~+1 packet
	if got := c.Window() - before; got < 0.9 || got > 1.2 {
		t.Fatalf("CA growth per window = %v, want ≈1", got)
	}
}

func TestCongestionLossProportionalDecrease(t *testing.T) {
	c := newCongestion(ccConfig())
	c.cwnd = 100
	c.OnLoss(time.Second, 100*time.Millisecond, 0.3)
	if c.Window() < 69 || c.Window() > 71 {
		t.Fatalf("window after 30%% loss = %v, want ≈70", c.Window())
	}
	// Mild loss still takes a real (minimum quarter) step.
	c.cwnd = 100
	c.OnLoss(time.Minute, 100*time.Millisecond, 0.01)
	if c.Window() != 75 {
		t.Fatalf("window after 1%% loss = %v, want 75 (minimum step)", c.Window())
	}
	// Severe loss is floored at halving.
	c.cwnd = 100
	c.OnLoss(2*time.Minute, 100*time.Millisecond, 0.9)
	if c.Window() != 50 {
		t.Fatalf("window after 90%% loss = %v, want 50 (floor)", c.Window())
	}
}

func TestCongestionHalvingAblation(t *testing.T) {
	cfg := ccConfig()
	cfg.HalvingDecrease = true
	c := newCongestion(cfg)
	c.cwnd = 100
	c.OnLoss(time.Second, 100*time.Millisecond, 0.05)
	if c.Window() != 50 {
		t.Fatalf("halving decrease = %v, want 50", c.Window())
	}
}

func TestCongestionOnePerRTTGuard(t *testing.T) {
	c := newCongestion(ccConfig())
	c.cwnd = 100
	srtt := 100 * time.Millisecond
	c.OnLoss(time.Second, srtt, 0.5)
	w := c.Window()
	c.OnLoss(time.Second+50*time.Millisecond, srtt, 0.5) // within one RTT
	if c.Window() != w {
		t.Fatalf("second loss within RTT changed window: %v → %v", w, c.Window())
	}
	c.OnLoss(time.Second+200*time.Millisecond, srtt, 0.5)
	if c.Window() >= w {
		t.Fatalf("loss after RTT guard did not decrease: %v", c.Window())
	}
}

func TestCongestionTimeout(t *testing.T) {
	c := newCongestion(ccConfig())
	c.cwnd = 64
	c.OnTimeout(time.Second)
	if c.Window() != 2 {
		t.Fatalf("window after timeout = %v, want initial 2", c.Window())
	}
	if c.ssthresh != 32 {
		t.Fatalf("ssthresh = %v, want 32", c.ssthresh)
	}
}

func TestCongestionRescale(t *testing.T) {
	c := newCongestion(ccConfig())
	c.cwnd = 10
	c.Rescale(1 / (1 - 0.3)) // paper Case 2 with rate_chg = 0.3
	if c.Window() < 14.2 || c.Window() > 14.4 {
		t.Fatalf("rescaled window = %v, want ≈14.29", c.Window())
	}
	c.Rescale(1000)
	if c.Window() != c.maxCwnd {
		t.Fatalf("rescale must clamp to max: %v", c.Window())
	}
	c.Rescale(1e-9)
	if c.Window() != 1 {
		t.Fatalf("rescale must clamp to 1: %v", c.Window())
	}
	c.Rescale(0) // no-op
	if c.Window() != 1 {
		t.Fatal("zero factor must be ignored")
	}
}

func TestCongestionFrozen(t *testing.T) {
	cfg := ccConfig()
	cfg.DisableCC = true
	cfg.FixedWindow = 54
	cfg.sanitize()
	c := newCongestion(cfg)
	c.OnAck(100, true)
	c.OnLoss(time.Second, time.Millisecond, 0.5)
	c.OnTimeout(2 * time.Second)
	c.Rescale(3)
	if c.Window() != 54 {
		t.Fatalf("frozen window moved: %v", c.Window())
	}
}

// Property: window always stays within [1, MaxCwnd] under arbitrary event
// sequences.
func TestQuickCongestionBounds(t *testing.T) {
	f := func(events []uint8) bool {
		c := newCongestion(ccConfig())
		now := time.Duration(0)
		for _, e := range events {
			now += time.Duration(e) * time.Millisecond * 10
			switch e % 4 {
			case 0:
				c.OnAck(int(e%16)+1, e%2 == 0)
			case 1:
				c.OnLoss(now, 50*time.Millisecond, float64(e%100)/100)
			case 2:
				c.OnTimeout(now)
			case 3:
				c.Rescale(float64(e%40)/10 + 0.05)
			}
			if c.Window() < 1 || c.Window() > c.maxCwnd {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRTTEstimator(t *testing.T) {
	r := newRTTEstimator(100*time.Millisecond, 10*time.Second)
	if r.RTO() != time.Second {
		t.Fatalf("initial RTO = %v, want 1s", r.RTO())
	}
	r.Sample(200 * time.Millisecond)
	if r.SRTT() != 200*time.Millisecond {
		t.Fatalf("first sample srtt = %v", r.SRTT())
	}
	if r.RTO() != 600*time.Millisecond { // srtt + 4·(srtt/2)
		t.Fatalf("RTO after first sample = %v, want 600ms", r.RTO())
	}
	for i := 0; i < 50; i++ {
		r.Sample(200 * time.Millisecond)
	}
	// Stable RTT → rttvar decays, RTO approaches srtt (floored).
	if r.RTO() > 400*time.Millisecond {
		t.Fatalf("RTO with stable RTT = %v, want < 400ms", r.RTO())
	}
	if r.SRTT() != 200*time.Millisecond {
		t.Fatalf("srtt drifted: %v", r.SRTT())
	}
}

func TestRTTEstimatorBackoff(t *testing.T) {
	r := newRTTEstimator(100*time.Millisecond, 3*time.Second)
	r.Sample(200 * time.Millisecond)
	base := r.RTO()
	r.Backoff()
	if r.RTO() != 2*base {
		t.Fatalf("backoff RTO = %v, want %v", r.RTO(), 2*base)
	}
	for i := 0; i < 10; i++ {
		r.Backoff()
	}
	if r.RTO() != 3*time.Second {
		t.Fatalf("RTO must cap at max: %v", r.RTO())
	}
	// A fresh sample clears the backoff.
	r.Sample(200 * time.Millisecond)
	if r.RTO() >= 2*base {
		t.Fatalf("sample did not clear backoff: %v", r.RTO())
	}
}

func TestRTTEstimatorIgnoresNonPositive(t *testing.T) {
	r := newRTTEstimator(100*time.Millisecond, time.Minute)
	r.Sample(0)
	r.Sample(-time.Second)
	if r.SRTT() != 0 {
		t.Fatalf("non-positive samples must be ignored: %v", r.SRTT())
	}
}

func TestRTTMinFloor(t *testing.T) {
	r := newRTTEstimator(300*time.Millisecond, time.Minute)
	for i := 0; i < 20; i++ {
		r.Sample(time.Millisecond)
	}
	if r.RTO() != 300*time.Millisecond {
		t.Fatalf("RTO must floor at min: %v", r.RTO())
	}
}

// TestSendPktFreelistHoldsFullFlight pins the sendPkt freelist bound to the
// largest flight the machine can hold — MaxCwnd capped by the peer's
// advertised window, at least one packet — so a sender running a full
// window recycles every sendPkt instead of allocating past a fixed cap.
func TestSendPktFreelistHoldsFullFlight(t *testing.T) {
	for _, tc := range []struct {
		maxCwnd float64
		peerWnd uint16
		want    int
	}{
		{1024, 512, 512}, // default dialer against a default receiver
		{1024, 4000, 1024},
		{128, 512, 128},
		{1024, 0, 1},
	} {
		cfg := DefaultConfig()
		cfg.MaxCwnd = tc.maxCwnd
		m := NewMachine(cfg, &nullEnv{})
		m.peerWnd = tc.peerWnd
		for i := 0; i < 5000; i++ {
			m.putSendPkt(new(sendPkt))
		}
		if got := len(m.spFree); got != tc.want {
			t.Errorf("MaxCwnd %v, peer window %d: freelist holds %d sendPkts, want %d", tc.maxCwnd, tc.peerWnd, got, tc.want)
		}
	}
}
