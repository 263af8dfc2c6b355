package iqrudp_test

// Observability-overhead harness: the histogram hooks sit on the transport's
// hottest paths (every ack, every delivery, every SendMsg), so their cost is
// pinned here against the uninstrumented machine using the same
// allocation-free pipe as bench_alloc_test.go.
//
// Two budgets, both from DESIGN.md §14:
//
//   - histogram recording, and histograms plus the flight-recorder ring (the
//     serve engine's default posture for accepted connections), add ZERO
//     allocations to a steady-state message round (TestObsAllocParity,
//     ungated — runs in tier-1);
//   - histogram recording adds at most 5% ns/op to the steady-state round
//     (TestObsBenchJSON, gated on BENCH_OBS_JSON; `make bench-obs` records
//     the A/B into BENCH_obs.json). The full leg's ns/op is reported.

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/hist"
)

// histConfig arms only the histogram set — the configuration whose overhead
// the 0-alloc / ≤5% budgets govern.
func histConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Hists = core.NewHists()
	return cfg
}

// fullObsConfig arms histograms plus the flight-recorder ring, the serve
// engine's default posture for accepted connections.
func fullObsConfig() core.Config {
	cfg := histConfig()
	cfg.FlightEvents = 64
	return cfg
}

// benchSteadyState runs BenchmarkSendRecvSteadyState's body against a
// config factory and returns the result.
func benchSteadyState(mk func() core.Config) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		a, w := newPipePairCfg(b, mk)
		payload := make([]byte, 1200)
		for i := 0; i < 200; i++ {
			sendRound(a, w, payload)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sendRound(a, w, payload)
		}
	})
}

// minNsPerRound de-noises a timing leg: best of n benchmark runs.
func minNsPerRound(mk func() core.Config, n int) float64 {
	best := 0.0
	for i := 0; i < n; i++ {
		v := float64(benchSteadyState(mk).NsPerOp())
		if best == 0 || v < best {
			best = v
		}
	}
	return best
}

// TestObsAllocParity pins the zero-allocation budget: a machine with
// histograms armed, and one with histograms plus the flight ring, must
// spend exactly as few allocations per steady-state round as an
// uninstrumented one, and must actually be recording.
func TestObsAllocParity(t *testing.T) {
	off, _ := measureRoundAllocsCfg(t, core.DefaultConfig)
	full, _ := measureRoundAllocsCfg(t, fullObsConfig)

	a, w := newPipePairCfg(t, histConfig)
	payload := make([]byte, 1200)
	for i := 0; i < 200; i++ {
		sendRound(a, w, payload)
	}
	on := testing.AllocsPerRun(2000, func() { sendRound(a, w, payload) })

	hs := a.Hists()
	if hs == nil {
		t.Fatal("instrumented machine lost its histogram set")
	}
	for _, s := range hs.Snapshots() {
		// RTT, ack-delay and backlog all sample on this path; delivery
		// samples on the peer, and FEC repair latency only on a loss the
		// repair layer reconstructs. Anything else at zero means a dead hook.
		if s.Name != hist.MetricDelivery && s.Name != hist.MetricFecRepair && s.Count == 0 {
			t.Errorf("histogram %s recorded nothing on the steady-state path", s.Name)
		}
	}

	t.Logf("round allocs: %.2f uninstrumented, %.2f with histograms, %.2f with histograms and flight ring", off, on, full)
	if on > off {
		t.Fatalf("histogram recording allocates: %.2f/round with hists, %.2f without", on, off)
	}
	if full > off {
		t.Fatalf("flight ring allocates: %.2f/round with hists and ring, %.2f without", full, off)
	}
}

// TestObsBenchJSON records the observability-overhead A/B (ns/op and
// allocs/op for histograms off, on, and on+flight-ring) into the file named
// by BENCH_OBS_JSON, enforcing the ≤5%% ns/op budget. `make bench-obs`.
func TestObsBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_OBS_JSON")
	if out == "" {
		t.Skip("set BENCH_OBS_JSON=/path/to/BENCH_obs.json to run the obs-overhead A/B")
	}

	offAllocs, _ := measureRoundAllocsCfg(t, core.DefaultConfig)
	onAllocs, _ := measureRoundAllocsCfg(t, histConfig)
	fullAllocs, _ := measureRoundAllocsCfg(t, fullObsConfig)

	const reps = 3
	offNs := minNsPerRound(core.DefaultConfig, reps)
	onNs := minNsPerRound(histConfig, reps)
	fullNs := minNsPerRound(fullObsConfig, reps)

	type leg struct {
		NsPerRound     float64 `json:"ns_per_round"`
		AllocsPerRound float64 `json:"allocs_per_round"`
	}
	report := struct {
		Generated    string  `json:"generated"`
		Bench        string  `json:"bench"`
		Off          leg     `json:"histograms_off"`
		On           leg     `json:"histograms_on"`
		Full         leg     `json:"histograms_and_flight_ring"`
		HistOverhead float64 `json:"hist_ns_overhead_ratio"`
		FullOverhead float64 `json:"full_ns_overhead_ratio"`
	}{
		Generated:    time.Now().UTC().Format(time.RFC3339),
		Bench:        "steady-state message round (4 packets) on the allocation-free pipe, best of 3",
		Off:          leg{offNs, offAllocs},
		On:           leg{onNs, onAllocs},
		Full:         leg{fullNs, fullAllocs},
		HistOverhead: onNs/offNs - 1,
		FullOverhead: fullNs/offNs - 1,
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("ns/round %.0f -> %.0f with hists (%+.1f%%), %.0f with flight ring (%+.1f%%); wrote %s",
		offNs, onNs, 100*report.HistOverhead, fullNs, 100*report.FullOverhead, out)

	if onAllocs > offAllocs {
		t.Errorf("histogram recording allocates: %.2f/round vs %.2f", onAllocs, offAllocs)
	}
	if fullAllocs > offAllocs {
		t.Errorf("flight ring allocates: %.2f/round vs %.2f", fullAllocs, offAllocs)
	}
	if report.HistOverhead > 0.05 {
		t.Errorf("histogram ns/op overhead %+.1f%% exceeds the 5%% budget", 100*report.HistOverhead)
	}
}
