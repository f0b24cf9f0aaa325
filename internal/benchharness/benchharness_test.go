package benchharness

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"
)

func suiteWith(results ...Result) Suite {
	return Suite{GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 8, Results: results}
}

func TestCompareFlagsInjectedRegression(t *testing.T) {
	base := suiteWith(
		Result{Name: "CloudAnalyze/serial", NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 4096},
		Result{Name: "DetectPeaks", NsPerOp: 500, AllocsPerOp: 2, BytesPerOp: 64},
	)
	cur := suiteWith(
		// ns +50% (> 30), allocs +20% (> 10), bytes unchanged.
		Result{Name: "CloudAnalyze/serial", NsPerOp: 1500, AllocsPerOp: 120, BytesPerOp: 4096},
		Result{Name: "DetectPeaks", NsPerOp: 510, AllocsPerOp: 2, BytesPerOp: 64},
	)
	regs := Compare(base, cur, DefaultThresholds())
	if len(regs) != 2 {
		t.Fatalf("got %d regressions %v, want 2", len(regs), regs)
	}
	if regs[0].Metric != "ns/op" || regs[1].Metric != "allocs/op" {
		t.Fatalf("unexpected metrics: %v", regs)
	}
	if !strings.Contains(regs[0].String(), "CloudAnalyze/serial") {
		t.Fatalf("regression string %q lacks benchmark name", regs[0].String())
	}
}

func TestCompareWithinThresholdsPasses(t *testing.T) {
	base := suiteWith(Result{Name: "DetrendWorkers/serial", NsPerOp: 1000, AllocsPerOp: 10, BytesPerOp: 1000})
	cur := suiteWith(Result{Name: "DetrendWorkers/serial", NsPerOp: 1200, AllocsPerOp: 10, BytesPerOp: 1050})
	if regs := Compare(base, cur, DefaultThresholds()); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
}

func TestCompareZeroBaselineGrowthRegresses(t *testing.T) {
	base := suiteWith(Result{Name: "DetectPeaks", NsPerOp: 500, AllocsPerOp: 0, BytesPerOp: 0})
	cur := suiteWith(Result{Name: "DetectPeaks", NsPerOp: 500, AllocsPerOp: 3, BytesPerOp: 96})
	regs := Compare(base, cur, DefaultThresholds())
	if len(regs) != 2 {
		t.Fatalf("got %v, want allocs/op and B/op regressions", regs)
	}
}

func TestCompareIgnoresBenchmarksMissingFromEitherSide(t *testing.T) {
	base := suiteWith(Result{Name: "OnlyInBaseline", NsPerOp: 1, AllocsPerOp: 1})
	cur := suiteWith(Result{Name: "OnlyInCurrent", NsPerOp: 1e9, AllocsPerOp: 1e6})
	if regs := Compare(base, cur, DefaultThresholds()); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := suiteWith(Result{Name: "DetectPeaks", Iterations: 7, NsPerOp: 123.5, AllocsPerOp: 2, BytesPerOp: 64})
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if len(got.Results) != 1 || got.Results[0] != s.Results[0] || got.GOMAXPROCS != s.GOMAXPROCS {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, s)
	}
}

func TestReadJSONRejectsEmptySuite(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"results":[]}`)); err == nil {
		t.Fatal("empty suite should not parse")
	}
	if _, err := ReadJSON(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage should not parse")
	}
}

func TestRunUnknownFilter(t *testing.T) {
	if _, err := Run(Options{Filter: "NoSuchBenchmark"}); err == nil {
		t.Fatal("unknown filter should fail")
	}
}

func TestRunDetectPeaksQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run builds the 300 s capture")
	}
	s, err := Run(Options{Filter: "DetectPeaks", BenchTime: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(s.Results) != 1 || s.Results[0].Name != "DetectPeaks" {
		t.Fatalf("unexpected results: %+v", s.Results)
	}
	r := s.Results[0]
	if r.Iterations <= 0 || r.NsPerOp <= 0 {
		t.Fatalf("implausible measurement: %+v", r)
	}
	// The exact-allocation rewrite guarantees at most two allocations per
	// call (regions + peaks); gate it here as well as in sigproc's
	// AllocsPerRun test.
	if r.AllocsPerOp > 2 {
		t.Errorf("DetectPeaks allocs/op = %d, want <= 2", r.AllocsPerOp)
	}
	var table bytes.Buffer
	s.FormatTable(&table)
	if !strings.Contains(table.String(), "DetectPeaks") {
		t.Fatalf("table output %q lacks benchmark", table.String())
	}
}

func TestRunAtRequestedGOMAXPROCS(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	want := before + 1
	s, err := Run(Options{Filter: "Electrode", BenchTime: 10 * time.Millisecond, GOMAXPROCS: want})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.GOMAXPROCS != want {
		t.Errorf("suite recorded GOMAXPROCS %d, want %d", s.GOMAXPROCS, want)
	}
	if got := runtime.GOMAXPROCS(0); got != before {
		t.Errorf("GOMAXPROCS left at %d, want it restored to %d", got, before)
	}
}

// The render workload runs the real noise path. A render allocates its
// output (carrier list, trace headers, one sample backing) and draws its
// scratch from a pool, so a per-carrier or per-sample allocation would blow
// far past the bound.
func TestRunLockinRenderQuick(t *testing.T) {
	s, err := Run(Options{Filter: "LockinRender", BenchTime: 50 * time.Millisecond, GOMAXPROCS: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(s.Results) != 1 || s.Results[0].Iterations <= 0 {
		t.Fatalf("unexpected results: %+v", s.Results)
	}
	if r := s.Results[0]; r.AllocsPerOp > 8 {
		t.Errorf("LockinRender allocs/op = %d, want <= 8", r.AllocsPerOp)
	}
}
