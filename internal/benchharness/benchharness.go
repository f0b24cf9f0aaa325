// Package benchharness runs the repository's hot-path benchmarks
// programmatically (via testing.Benchmark) and records machine-readable
// results — ns/op, allocs/op, B/op per benchmark — so performance
// regressions are caught by comparing a fresh run against a committed
// baseline (BENCH_15.json) instead of eyeballing `go test -bench` output.
//
// The harness is what `medsen-bench -json` and `medsen-bench -compare`
// drive; CI gates allocs/op on it (blocking) and runs the full compare as a
// non-blocking step so wall-clock noise never fails unrelated builds.
package benchharness

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Suite is one full harness run plus enough environment detail to judge
// whether a wall-clock comparison against it is meaningful.
type Suite struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Results    []Result `json:"results"`
}

// Options configure a harness run.
type Options struct {
	// Filter selects benchmarks whose name starts with it (empty = all).
	Filter string
	// BenchTime overrides the per-benchmark measuring time (0 keeps the
	// testing package's 1 s default). Short times make CI smoke runs cheap;
	// baselines should use the default.
	BenchTime time.Duration
	// GOMAXPROCS, when positive, runs the suite at that setting (restoring
	// the previous one afterwards). Compares pass the baseline's recorded
	// value: a workload that fans out over GOMAXPROCS goroutines allocates
	// per goroutine, so its allocs/op is only comparable at equal settings.
	GOMAXPROCS int
}

// Run executes every registered benchmark matching opts and returns the
// suite. A benchmark that fails internally (b.Fatal) surfaces as an error.
func Run(opts Options) (Suite, error) {
	if opts.BenchTime > 0 {
		restore, err := setBenchTime(opts.BenchTime)
		if err != nil {
			return Suite{}, err
		}
		defer restore()
	}
	if opts.GOMAXPROCS > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(opts.GOMAXPROCS))
	}
	suite := Suite{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, bm := range Benchmarks() {
		if opts.Filter != "" && !strings.HasPrefix(bm.Name, opts.Filter) {
			continue
		}
		r := testing.Benchmark(bm.F)
		if r.N == 0 {
			return Suite{}, fmt.Errorf("benchharness: benchmark %s failed", bm.Name)
		}
		suite.Results = append(suite.Results, Result{
			Name:        bm.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	if len(suite.Results) == 0 {
		return Suite{}, fmt.Errorf("benchharness: no benchmark matches filter %q", opts.Filter)
	}
	return suite, nil
}

// setBenchTime points the testing package's -test.benchtime flag at d and
// returns a restore function. testing.Init is a no-op when the flags are
// already registered (i.e. inside a test binary).
func setBenchTime(d time.Duration) (restore func(), err error) {
	testing.Init()
	f := flag.Lookup("test.benchtime")
	if f == nil {
		return nil, errors.New("benchharness: test.benchtime flag not registered")
	}
	old := f.Value.String()
	if err := f.Value.Set(d.String()); err != nil {
		return nil, fmt.Errorf("benchharness: setting benchtime: %w", err)
	}
	return func() { _ = f.Value.Set(old) }, nil
}

// WriteJSON emits the suite as indented JSON (the BENCH_15.json format).
func (s Suite) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadJSON parses a suite written by WriteJSON.
func ReadJSON(r io.Reader) (Suite, error) {
	var s Suite
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return Suite{}, fmt.Errorf("benchharness: parsing suite: %w", err)
	}
	if len(s.Results) == 0 {
		return Suite{}, errors.New("benchharness: suite has no results")
	}
	return s, nil
}
