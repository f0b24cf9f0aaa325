// Command e2ebench is MedSen's end-to-end benchmark. It runs one named
// workload against the real stack — simulated device, accessory link, phone
// relay and the analysis service on a loopback listener — checks every
// output, and prints the metrics as one JSON object on the last line of
// standard output:
//
//	e2ebench --workload diagnose|ingest|batch --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones (setup_s,
// latency_p50_ms, latency_p90_ms, throughput_per_s, peak_rss_mb). With
// --trace 1 the run measures half its time untraced and half traced,
// records one span per public call, and prints the layer ledger followed by
// the per-layer metrics (layers.go lists them with the end-to-end metric and
// workload each should move).
//
// Build and run it from the repository root with e2ebench/run.sh, which
// keeps every build and run artifact under .bench_build/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// processStart anchors the first set-up measurement at process start.
var processStart = time.Now()

// setupReps is how many times a run builds its workload from scratch; setup_s
// is the median, and the last build is the one measured.
const setupReps = 3

type options struct {
	seed    uint64
	trace   bool
	workDir string
}

// workload is one benchmark scenario. measure may run several times (an
// untraced and a traced phase); check and shadow cover every phase run.
type workload interface {
	// setUp synthesizes inputs, starts the service and warms it up.
	setUp(ctx context.Context) error
	tearDown()
	// measure runs the timed loop for d. tr is nil in untraced phases.
	measure(ctx context.Context, d time.Duration, tr *tracer) (phase, error)
	// check verifies the outputs of every operation measured so far.
	check(ctx context.Context) error
	// shadow re-runs the layers hidden inside traced operations.
	shadow(tr *tracer) error
	// rootSpan names the span that times one operation.
	rootSpan() string
	// layerValues adds the workload's own per-layer values.
	layerValues(l *ledger, vals map[string]float64)
}

// phase is the outcome of one timed loop.
type phase struct {
	latMS []float64 // successful operations only
	// windows, when set, splits latMS into consecutive sub-windows of the
	// loop; the latency percentiles are then medians over sub-windows.
	windows   [][]float64
	attempted int
	failed    int
	// completed counts captures completed and verified.
	completed int
	elapsed   time.Duration
	// rejected counts admission refusals by error code.
	rejected map[string]int
	// invalid, when set, says why the measurement cannot be trusted.
	invalid string
	// Whole-process heap allocation and GC cycles over the loop.
	allocMB  float64
	gcCycles float64
}

// latency is the q-quantile of the phase's latencies in ms. With
// sub-windows it is the median over sub-windows of each one's q-quantile, so
// that a transient stall of the machine moves one sub-window, not the run.
func (p phase) latency(q float64) float64 {
	if len(p.windows) < 2 {
		return quantile(p.latMS, q)
	}
	var xs []float64
	for _, w := range p.windows {
		xs = append(xs, quantile(w, q))
	}
	return median(xs)
}

func newWorkload(name string, opts options) (workload, error) {
	switch name {
	case "diagnose":
		return &diagnoseWorkload{opts: opts}, nil
	case "ingest":
		return &ingestWorkload{opts: opts}, nil
	case "batch":
		return &batchWorkload{opts: opts}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want diagnose, ingest or batch)", name)
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: diagnose, ingest or batch")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced ledger and reports per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	workDir, err := os.MkdirTemp(".bench_build", "e2ebench-run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	// The run's state directories are left in place, under .bench_build/
	// which the repository ignores: this disk's filesystem discards freed
	// blocks online, and deleting a run's thousands of fsynced documents
	// doubled fsync latency for the next run's timed window.
	opts := options{seed: *seed, trace: *trace == 1, workDir: workDir}
	res, err := execute(context.Background(), *name, opts, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func execute(ctx context.Context, name string, opts options, window time.Duration) (result, error) {
	var w workload
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if rep == 0 {
			t0 = processStart
		}
		var err error
		if w, err = newWorkload(name, opts); err != nil {
			return result{}, err
		}
		if err := w.setUp(ctx); err != nil {
			w.tearDown()
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			w.tearDown()
		}
	}
	defer w.tearDown()

	untracedWindow := window
	if opts.trace {
		untracedWindow = window / 2
	}
	untraced, err := measurePhase(ctx, w, untracedWindow, nil)
	if err != nil {
		return result{}, err
	}
	var traced phase
	var tr *tracer
	if opts.trace {
		tr = newTracer()
		if traced, err = measurePhase(ctx, w, window-untracedWindow, tr); err != nil {
			return result{}, err
		}
	}

	res := result{
		Correct:   true,
		Attempted: untraced.attempted + traced.attempted,
		Failed:    untraced.failed + traced.failed,
	}
	if err := w.check(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: output check failed: %v\n", name, err)
		res.Correct = false
	}
	for _, p := range []phase{untraced, traced} {
		if p.invalid != "" {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: run invalid: %s\n", name, p.invalid)
			res.Correct = false
		}
	}
	if res.Attempted < 1 {
		return result{}, errors.New("no operation attempted in the window")
	}
	// Admission refusals by error code, over every phase.
	rejected := make(map[string]int)
	for _, p := range []phase{untraced, traced} {
		for code, n := range p.rejected {
			rejected[code] += n
		}
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: %d attempted, %d failed, %d completed in %.2fs, admission refusals %v, setups %v\n",
		name, opts.seed, untraced.attempted, untraced.failed, untraced.completed, untraced.elapsed.Seconds(), rejected, setups)

	if !opts.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, err
		}
		res.Metrics = map[string]metric{
			"setup_s":          {median(setups), "s"},
			"latency_p50_ms":   {untraced.latency(0.5), "ms"},
			"latency_p90_ms":   {untraced.latency(0.9), "ms"},
			"throughput_per_s": {float64(untraced.completed) / untraced.elapsed.Seconds(), "1/s"},
			"peak_rss_mb":      {rss, "MB"},
		}
		return res, nil
	}

	if err := w.shadow(tr); err != nil {
		return result{}, err
	}
	l := tr.ledger()
	vals := make(map[string]float64)
	for _, lm := range layerMetrics {
		vals[lm.name] = genericValue(l, lm.name)
	}
	w.layerValues(l, vals)
	vals["go.alloc_mb_per_capture"] = untraced.allocMB / float64(max(untraced.completed, 1))
	vals["go.gc_cycles_per_capture"] = untraced.gcCycles / float64(max(untraced.completed, 1))
	vals["error_rate"] = float64(res.Failed) / float64(res.Attempted)
	vals["cloud.admission.rejected"] = 0
	for _, n := range rejected {
		vals["cloud.admission.rejected"] += float64(n)
	}
	remainder := printLedger(os.Stdout, name, w.rootSpan(), l, untraced, traced)
	vals[name+".remainder_ms"] = remainder
	vals[name+".trace_overhead_ms"] = traced.latency(0.5) - untraced.latency(0.5)
	printLayerMetrics(os.Stdout, name, vals)
	res.Metrics = make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		res.Metrics[lm.name] = metric{vals[lm.name], lm.unit}
	}
	return res, nil
}

// measurePhase runs one timed loop with the process's heap counters read
// around it.
func measurePhase(ctx context.Context, w workload, d time.Duration, tr *tracer) (phase, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := w.measure(ctx, d, tr)
	runtime.ReadMemStats(&after)
	if err != nil {
		return phase{}, err
	}
	p.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	p.gcCycles = float64(after.NumGC - before.NumGC)
	return p, nil
}
