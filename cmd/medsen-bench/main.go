// Command medsen-bench regenerates the paper's evaluation: every figure
// (7, 8, 11–16), the in-text numbers (Eq. 2 key sizing, §VII-B compression,
// the ~0.2 s end-to-end time, §VII-C authentication accuracy) and the
// ablation studies listed in DESIGN.md.
//
// It doubles as the performance-regression harness: -json runs the
// hot-path benchmark suite (internal/benchharness) and writes the
// machine-readable BENCH_12.json format, and -compare gates a run against a
// committed baseline, exiting non-zero on any regression beyond the
// thresholds.
//
// Usage:
//
//	medsen-bench                 # everything, full scale
//	medsen-bench -quick          # everything, test scale
//	medsen-bench -fig 12         # one figure
//	medsen-bench -exp e2e        # one in-text experiment
//	medsen-bench -exp ablations  # the ablation suite
//	medsen-bench -json BENCH_12.json           # record a perf baseline
//	medsen-bench -compare BENCH_12.json        # rerun and gate against it
//	medsen-bench -compare BASE -current CUR    # pure file-vs-file gate
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"medsen/internal/benchharness"
	"medsen/internal/experiments"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		fig   = flag.String("fig", "", "figure to regenerate: 5, 7, 8, 11, 12, 13, 14, 15, 16 (empty = all)")
		exp   = flag.String("exp", "", "experiment: keysize, compression, e2e, repeatability, auth, ablations (empty = all)")
		quick = flag.Bool("quick", false, "test-scale workloads")
		seed  = flag.Uint64("seed", 2016, "deterministic experiment seed")

		jsonOut     = flag.String("json", "", "run the perf harness and write machine-readable results to FILE (\"-\" = stdout)")
		compareFile = flag.String("compare", "", "compare against baseline FILE; exit non-zero on regression")
		currentFile = flag.String("current", "", "with -compare: read current results from FILE instead of running the harness")
		benchFilter = flag.String("bench-filter", "", "run only harness benchmarks whose name starts with this prefix")
		benchTime   = flag.Duration("bench-time", 0, "per-benchmark measuring time for the harness (0 = testing default of 1s)")
		thNs        = flag.Float64("threshold-ns", benchharness.DefaultThresholds().NsPct, "allowed ns/op growth percent before -compare fails")
		thAllocs    = flag.Float64("threshold-allocs", benchharness.DefaultThresholds().AllocsPct, "allowed allocs/op growth percent before -compare fails")
		thBytes     = flag.Float64("threshold-bytes", benchharness.DefaultThresholds().BytesPct, "allowed B/op growth percent before -compare fails")
	)
	flag.Parse()

	if *jsonOut != "" || *compareFile != "" {
		th := benchharness.Thresholds{NsPct: *thNs, AllocsPct: *thAllocs, BytesPct: *thBytes}
		err := runHarness(harnessConfig{
			jsonOut:     *jsonOut,
			compareFile: *compareFile,
			currentFile: *currentFile,
			filter:      *benchFilter,
			benchTime:   *benchTime,
			thresholds:  th,
		}, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "medsen-bench: %v\n", err)
			return 1
		}
		return 0
	}

	o := experiments.Options{Seed: *seed, Quick: *quick}
	if err := runSelection(o, *fig, *exp); err != nil {
		fmt.Fprintf(os.Stderr, "medsen-bench: %v\n", err)
		return 1
	}
	return 0
}

// harnessConfig bundles the perf-harness invocation.
type harnessConfig struct {
	jsonOut     string
	compareFile string
	currentFile string
	filter      string
	benchTime   time.Duration
	thresholds  benchharness.Thresholds
}

// runHarness obtains the current suite (from -current, or by running the
// benchmarks), optionally records it, and optionally gates it against a
// baseline. A regression is an error so the process exits non-zero — the CI
// contract.
//
// A compare reads the baseline first and runs the harness at the baseline's
// recorded GOMAXPROCS, so a baseline recorded on one core gates a run on a
// many-core machine like for like.
func runHarness(cfg harnessConfig, stdout io.Writer) error {
	var baseline benchharness.Suite
	if cfg.compareFile != "" {
		var err error
		if baseline, err = readSuite(cfg.compareFile); err != nil {
			return err
		}
	}
	var current benchharness.Suite
	var err error
	if cfg.currentFile != "" {
		current, err = readSuite(cfg.currentFile)
	} else {
		current, err = benchharness.Run(benchharness.Options{
			Filter:     cfg.filter,
			BenchTime:  cfg.benchTime,
			GOMAXPROCS: baseline.GOMAXPROCS,
		})
	}
	if err != nil {
		return err
	}

	if cfg.jsonOut != "" {
		if cfg.jsonOut == "-" {
			if err := current.WriteJSON(stdout); err != nil {
				return err
			}
		} else {
			f, err := os.Create(cfg.jsonOut)
			if err != nil {
				return fmt.Errorf("creating %s: %w", cfg.jsonOut, err)
			}
			werr := current.WriteJSON(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return fmt.Errorf("writing %s: %w", cfg.jsonOut, werr)
			}
			fmt.Fprintf(stdout, "wrote %d benchmark results to %s\n", len(current.Results), cfg.jsonOut)
		}
	}

	if cfg.compareFile == "" {
		// Skip the table when the JSON already went to stdout.
		if cfg.jsonOut != "-" {
			current.FormatTable(stdout)
		}
		return nil
	}
	regs := benchharness.Compare(baseline, current, cfg.thresholds)
	current.FormatTable(stdout)
	if len(regs) == 0 {
		fmt.Fprintf(stdout, "no regressions against %s (thresholds: ns %.0f%%, allocs %.0f%%, B %.0f%%)\n",
			cfg.compareFile, cfg.thresholds.NsPct, cfg.thresholds.AllocsPct, cfg.thresholds.BytesPct)
		return nil
	}
	for _, r := range regs {
		fmt.Fprintln(stdout, r)
	}
	return fmt.Errorf("%d benchmark metric(s) regressed against %s", len(regs), cfg.compareFile)
}

func readSuite(path string) (benchharness.Suite, error) {
	f, err := os.Open(path)
	if err != nil {
		return benchharness.Suite{}, fmt.Errorf("opening %s: %w", path, err)
	}
	defer f.Close()
	s, err := benchharness.ReadJSON(f)
	if err != nil {
		return benchharness.Suite{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func runSelection(o experiments.Options, fig, exp string) error {
	all := fig == "" && exp == ""
	w := os.Stdout

	figures := map[string]func() error{
		"5": func() error {
			r, err := experiments.DesignComparison(o)
			if err != nil {
				return err
			}
			experiments.PrintDesignComparison(w, r)
			return nil
		},
		"7": func() error {
			r, err := experiments.Fig07SingleCellDrop(o)
			if err != nil {
				return err
			}
			experiments.PrintFig07(w, r)
			return nil
		},
		"8": func() error {
			r, err := experiments.Fig08FivePeakSignature(o)
			if err != nil {
				return err
			}
			experiments.PrintFig08(w, r)
			return nil
		},
		"11": func() error {
			r, err := experiments.Fig11EncryptedSignatures(o)
			if err != nil {
				return err
			}
			experiments.PrintFig11(w, r)
			return nil
		},
		"12": func() error {
			r, err := experiments.Fig12BeadCounts780(o)
			if err != nil {
				return err
			}
			experiments.PrintCountSweep(w, "Fig. 12", r)
			return nil
		},
		"13": func() error {
			r, err := experiments.Fig13BeadCounts358(o)
			if err != nil {
				return err
			}
			experiments.PrintCountSweep(w, "Fig. 13", r)
			return nil
		},
		"14": func() error {
			r, err := experiments.Fig14PeakAnalysisPerformance(o)
			if err != nil {
				return err
			}
			experiments.PrintFig14(w, r)
			return nil
		},
		"15": func() error {
			r, err := experiments.Fig15ImpedanceSpectra(o)
			if err != nil {
				return err
			}
			experiments.PrintFig15(w, r)
			return nil
		},
		"16": func() error {
			r, err := experiments.Fig16Clusters(o)
			if err != nil {
				return err
			}
			experiments.PrintFig16(w, r)
			return nil
		},
	}
	exps := map[string]func() error{
		"keysize": func() error {
			r, err := experiments.KeySizeAccounting(o)
			if err != nil {
				return err
			}
			experiments.PrintKeySize(w, r)
			return nil
		},
		"compression": func() error {
			r, err := experiments.CompressionExperiment(o)
			if err != nil {
				return err
			}
			experiments.PrintCompression(w, r)
			return nil
		},
		"e2e": func() error {
			r, err := experiments.EndToEndTiming(o)
			if err != nil {
				return err
			}
			experiments.PrintEndToEnd(w, r)
			return nil
		},
		"repeatability": func() error {
			r, err := experiments.Repeatability(o)
			if err != nil {
				return err
			}
			experiments.PrintRepeatability(w, r)
			return nil
		},
		"auth": func() error {
			r, err := experiments.AuthAccuracy(o)
			if err != nil {
				return err
			}
			experiments.PrintAuthAccuracy(w, r)
			return nil
		},
		"ablations": func() error {
			return experiments.PrintAblations(w, o)
		},
	}

	runOne := func(kind, key string, table map[string]func() error) error {
		fn, ok := table[key]
		if !ok {
			return fmt.Errorf("unknown %s %q", kind, key)
		}
		if err := fn(); err != nil {
			return fmt.Errorf("%s %s: %w", kind, key, err)
		}
		fmt.Fprintln(w)
		return nil
	}

	if !all {
		if fig != "" {
			return runOne("figure", fig, figures)
		}
		return runOne("experiment", exp, exps)
	}
	for _, key := range []string{"5", "7", "8", "11", "12", "13", "14", "15", "16"} {
		if err := runOne("figure", key, figures); err != nil {
			return err
		}
	}
	for _, key := range []string{"keysize", "compression", "e2e", "repeatability", "auth", "ablations"} {
		if err := runOne("experiment", key, exps); err != nil {
			return err
		}
	}
	return nil
}
