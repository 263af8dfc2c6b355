// Command iqperf is the repository benchmark: three seeded workloads that
// measure IQ-RUDP end to end (tracing off) or layer by layer (--trace 1).
//
//	bash perfbench/run.sh --workload wire-small --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//   - wire-small: open-loop 64 B messages over 2 loopback connections into a
//     serve engine running in its own process; latency at a fixed reference
//     rate, then a fixed ladder of offered rates up to the knee.
//   - churn-validate: 2 closed-loop clients dial (every handshake answered
//     with RETRY), send 16 marked messages, close, repeat.
//   - sim-lossy: the paper's dumbbell in virtual time with 10% bottleneck
//     loss, CBR cross traffic and FEC; run twice and compared bit for bit.
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. Human-readable lines (the fingerprint and every metric
// by name and unit) precede it. Exit status is non-zero when a correctness
// check fails or the run could not be made.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"github.com/cercs/iqrudp/internal/uio"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a workload's outcome. Metrics holds the metrics BENCHMARK.json
// lists (the JSON result); extra holds everything else the run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	extra    map[string]metric
	problems []string
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}, extra: map[string]metric{}}
}

func (r *result) set(name, unit string, v float64)   { r.Metrics[name] = metric{v, unit} }
func (r *result) named(name, unit string, v float64) { r.extra[name] = metric{v, unit} }

// fail records a failed correctness check; the run exits non-zero.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func main() {
	var (
		o     options
		trace int
		role  string
	)
	flag.StringVar(&o.workload, "workload", "", "wire-small | churn-validate | sim-lossy")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: every generated input derives from it")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for span dumps and the sink binary")
	flag.StringVar(&role, "role", "generator", "internal: generator | sink")
	sinkTol := flag.Float64("sink-tolerance", 0, "sink role: receiver loss tolerance")
	sinkValidate := flag.Bool("sink-validate", false, "sink role: AlwaysValidate handshakes")
	sinkTrace := flag.Bool("sink-trace", false, "sink role: count machine events and time public calls")
	flag.Parse()
	o.trace = trace == 1

	if role == "sink" {
		if err := runSink(*sinkTol, *sinkValidate, *sinkTrace); err != nil {
			fmt.Fprintln(os.Stderr, "sink:", err)
			os.Exit(1)
		}
		return
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "iqperf: --seconds must be at least 1")
		os.Exit(2)
	}
	// The load generator uses at most nproc threads (and connections).
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	var run func(options) (*result, error)
	switch o.workload {
	case "wire-small":
		run = runWireSmall
	case "churn-validate":
		run = runChurn
	case "sim-lossy":
		run = runSimLossy
	default:
		fmt.Fprintf(os.Stderr, "iqperf: unknown --workload %q\n", o.workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "iqperf:", err)
		os.Exit(2)
	}
	printFingerprint(o)
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iqperf:", err)
		os.Exit(1)
	}
	printResult(o, res)
	if !res.Correct {
		os.Exit(1)
	}
}

func printResult(o options, r *result) {
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", p)
	}
	all := map[string]metric{}
	for k, v := range r.extra {
		all[k] = v
	}
	for k, v := range r.Metrics {
		all[k] = v
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s seed=%d trace=%v attempted=%d failed=%d correct=%v\n",
		o.workload, o.seed, o.trace, r.Attempted, r.Failed, r.Correct)
	for _, k := range names {
		gate := " "
		if _, ok := r.Metrics[k]; ok {
			gate = "*"
		}
		fmt.Printf("  %s %-34s %14.6g %s\n", gate, k, all[k].Value, all[k].Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iqperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// printFingerprint states the host and build the numbers come from.
func printFingerprint(o options) {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	fp := map[string]any{
		"nproc":                hostCPUs(),
		"pinned":               pinned(),
		"generator_gomaxprocs": runtime.GOMAXPROCS(0),
		"sink_gomaxprocs":      sinkProcs(),
		"kernel":               strings.TrimSpace(string(kernel)),
		"go":                   runtime.Version(),
		"offload":              uio.ProbeOffload(),
		"commit":               commitID(),
		"seed":                 o.seed,
		"workload":             o.workload,
		"network":              networkNote(o.workload),
	}
	b, _ := json.Marshal(fp)
	fmt.Println("fingerprint", string(b))
}

// sinkProcs is the sink's GOMAXPROCS: one when pinned to its own CPU.
func sinkProcs() int {
	if pinned() {
		return 1
	}
	return hostCPUs()
}

func networkNote(w string) string {
	if w == "sim-lossy" {
		return "virtual-time simulated dumbbell; no sockets"
	}
	return "traffic crossed the host loopback interface, not a real link"
}

// commitID reports the source revision when the checkout says which it is;
// exported trees carry no git metadata.
func commitID() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown (checkout has no git metadata)"
	}
	ref := strings.TrimSpace(string(head))
	if rest, ok := strings.CutPrefix(ref, "ref: "); ok {
		if id, err := os.ReadFile(".git/" + rest); err == nil {
			return strings.TrimSpace(string(id))
		}
	}
	return ref
}
