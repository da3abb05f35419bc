// Command perfbench is the repository benchmark. It runs one named
// workload against the program's public entry points, checks the
// program's outputs, and prints one JSON line of metrics:
//
//	go run . --workload ipsec-mtu --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (BENCHMARK.json
// "end_to_end"); with --trace 1 it runs the workload untraced and traced in
// turn and reports the per-layer metrics. The process exits non-zero when
// a correctness check fails (after printing the result with
// "correct": false) or when the run cannot complete (printing no result).
// See README.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// workloads maps a workload name to its end-to-end and traced runs.
var workloads = map[string]struct {
	endToEnd func(runOpts) (*outcome, error)
	traced   func(runOpts) (*outcome, error)
}{
	"ipsec-mtu": {ipsecEndToEnd, ipsecTraced},
	"cpe-64b":   {cpeEndToEnd, cpeTraced},
	"fleet-ops": {fleetEndToEnd, fleetTraced},
}

// runOpts are the command-line settings of one run.
type runOpts struct {
	seed    int64
	seconds float64
}

// window is the timed window of an untraced run.
func (o runOpts) window() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// slice is the share of the window one set-up is measured for.
func (o runOpts) slice() time.Duration { return o.window() / setupRepeats }

// tracePass is the length of each of the traced run's passes (traceRounds
// untraced and as many traced), so a traced run measures as long as an
// untraced one.
func (o runOpts) tracePass() time.Duration { return o.window() / (2 * traceRounds) }

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int64
	// checkErr is the first failed correctness check; nil when the
	// program's outputs were all correct.
	checkErr error
	vals     map[string]float64
	// notes are diagnostics for standard error, such as the first failed
	// request.
	notes []string
}

func newOutcome() *outcome { return &outcome{vals: make(map[string]float64)} }

// fail records a failed correctness check, keeping the first.
func (o *outcome) fail(err error) {
	if o.checkErr == nil {
		o.checkErr = err
	}
}

// endToEnd fills the end-to-end metrics shared by every workload: the
// median set-up time; the median op rate of the timed window's one-second
// stretches; the mean latency over every op of the window; the CPU time
// and allocations per op over the window; and the median of its live-heap
// samples.
//
// The latency is a mean, not a median: on cpe-64b and fleet-ops the median
// falls where one mode of the distribution ends and the next begins (the
// first and second half of a 4-burst window; reads and the fastest
// mutation against the slower mutations), so it jumps between modes from
// run to run. The median is reported by the traced run.
func (o *outcome) endToEnd(setup time.Duration, lat *latencyHist, w *window, ops int64) error {
	if ops == 0 || w.wall <= 0 || lat.n == 0 {
		return fmt.Errorf("no op completed in the timed window")
	}
	if len(w.rates) == 0 {
		return fmt.Errorf("the timed window (%v) holds no whole %v stretch", w.wall, stretchLen)
	}
	o.vals["setup_s"] = setup.Seconds()
	o.vals["ops_per_s"] = median(w.rates)
	o.vals["latency_mean_us"] = lat.mean() / 1e3
	o.vals["cpu_us_per_op"] = float64(w.cpu) / float64(ops) / 1e3
	o.vals["allocs_per_op"] = float64(w.alloc) / float64(ops)
	o.vals["alloc_bytes_per_op"] = float64(w.bytes) / float64(ops)
	o.vals["heap_live_mb"] = median(w.heap) / (1 << 20)
	return nil
}

// latencyQuantiles reports the traced run's latency median and tail over
// its untraced passes. They are per-layer metrics, not gated: the median
// jumps between modes (see endToEnd), on a shared 2-vCPU host CPU steal
// stretches the cpe-64b p90 threefold where it only halves the op rate,
// and the p99 of identical runs swings by a third or more.
func (o *outcome) latencyQuantiles(lat *latencyHist) error {
	for name, q := range map[string]float64{"e2e.latency_p50_us": 0.5, "e2e.latency_p90_us": 0.9, "e2e.latency_p99_us": 0.99} {
		v, err := mustQuantile(lat, q)
		if err != nil {
			return err
		}
		o.vals[name] = v / 1e3
	}
	return nil
}

func main() {
	// One P. On a 2-vCPU host shared with other tenants, two Ps spend CPU
	// on idle-P spinning and cross-thread wake-ups, and how much depends on
	// the neighbours' load (ipsec-mtu measured 17 instead of 10 µs of CPU
	// per frame), so a run measured the host's scheduler, not the program.
	// The datapath worker of cpe-64b and the control plane's servers still
	// run as goroutines of their own.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: cpe-64b, fleet-ops or ipsec-mtu")
	seed := fs.Int64("seed", 1, "seed of the generated frames and requests")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, names)
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	opts := runOpts{seed: *seed, seconds: *seconds}
	fn, defs := wl.endToEnd, endToEnd
	if *trace == 1 {
		fn, defs = wl.traced, perLayer
	}
	out, err := fn(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	ms, err := report(defs, out.vals, *trace == 0)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, n := range out.notes {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", *name, n)
	}
	res := result{Correct: out.checkErr == nil, Attempted: out.attempted, Failed: out.failed, Metrics: ms}
	if out.checkErr != nil {
		fmt.Fprintf(stderr, "perfbench: %s: correctness check failed: %v\n", *name, out.checkErr)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// finite rejects values JSON cannot carry.
func finite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s is %v", name, v)
	}
	return nil
}
