package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"medsen/internal/benchharness"
	"medsen/internal/experiments"
)

func TestRunSelectionSingleFigure(t *testing.T) {
	o := experiments.Options{Seed: 2016, Quick: true}
	if err := runSelection(o, "8", ""); err != nil {
		t.Fatalf("figure 8: %v", err)
	}
	if err := runSelection(o, "", "keysize"); err != nil {
		t.Fatalf("keysize: %v", err)
	}
}

func TestRunSelectionUnknownTargets(t *testing.T) {
	o := experiments.Options{Seed: 1, Quick: true}
	if err := runSelection(o, "99", ""); err == nil {
		t.Error("unknown figure should fail")
	}
	if err := runSelection(o, "", "nope"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

// writeSuite stores a suite as a JSON file under dir.
func writeSuite(t *testing.T, dir, name string, s benchharness.Suite) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func harnessSuite(ns float64, allocs int64) benchharness.Suite {
	return benchharness.Suite{
		GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 8,
		Results: []benchharness.Result{
			{Name: "CloudAnalyze/serial", Iterations: 10, NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: 1 << 20},
		},
	}
}

func TestRunHarnessCompareFailsOnInjectedRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeSuite(t, dir, "base.json", harnessSuite(1000, 100))
	// Synthetic regression: wall time doubles and allocations grow 50%.
	cur := writeSuite(t, dir, "cur.json", harnessSuite(2000, 150))
	var out bytes.Buffer
	err := runHarness(harnessConfig{
		compareFile: base,
		currentFile: cur,
		thresholds:  benchharness.DefaultThresholds(),
	}, &out)
	if err == nil {
		t.Fatalf("regression must fail the compare; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ns/op regressed") || !strings.Contains(out.String(), "allocs/op regressed") {
		t.Fatalf("output lacks regression details:\n%s", out.String())
	}
}

func TestRunHarnessComparePassesWhenWithinThresholds(t *testing.T) {
	dir := t.TempDir()
	base := writeSuite(t, dir, "base.json", harnessSuite(1000, 100))
	cur := writeSuite(t, dir, "cur.json", harnessSuite(1100, 100))
	var out bytes.Buffer
	if err := runHarness(harnessConfig{
		compareFile: base,
		currentFile: cur,
		thresholds:  benchharness.DefaultThresholds(),
	}, &out); err != nil {
		t.Fatalf("within-threshold compare failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no regressions") {
		t.Fatalf("output lacks pass message:\n%s", out.String())
	}
}

func TestRunHarnessJSONFromCurrentFile(t *testing.T) {
	dir := t.TempDir()
	cur := writeSuite(t, dir, "cur.json", harnessSuite(1000, 100))
	outPath := filepath.Join(dir, "out.json")
	var out bytes.Buffer
	if err := runHarness(harnessConfig{jsonOut: outPath, currentFile: cur}, &out); err != nil {
		t.Fatalf("runHarness: %v", err)
	}
	f, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := benchharness.ReadJSON(f)
	if err != nil {
		t.Fatalf("rewritten suite unreadable: %v", err)
	}
	if len(s.Results) != 1 || s.Results[0].Name != "CloudAnalyze/serial" {
		t.Fatalf("unexpected suite: %+v", s)
	}
}

func TestRunHarnessMissingBaseline(t *testing.T) {
	dir := t.TempDir()
	cur := writeSuite(t, dir, "cur.json", harnessSuite(1000, 100))
	var out bytes.Buffer
	err := runHarness(harnessConfig{
		compareFile: filepath.Join(dir, "missing.json"),
		currentFile: cur,
	}, &out)
	if err == nil {
		t.Fatal("missing baseline must fail")
	}
}

// A compare runs the harness at the baseline's recorded GOMAXPROCS, so a
// baseline recorded on one core gates a many-core machine like for like.
func TestRunHarnessCompareUsesBaselineGOMAXPROCS(t *testing.T) {
	dir := t.TempDir()
	want := runtime.GOMAXPROCS(0) + 1
	base := benchharness.Suite{
		GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: want,
		Results: []benchharness.Result{
			{Name: "Electrode", Iterations: 10, NsPerOp: 1e12, AllocsPerOp: 1000, BytesPerOp: 1 << 30},
		},
	}
	basePath := writeSuite(t, dir, "base.json", base)
	outPath := filepath.Join(dir, "cur.json")
	var out bytes.Buffer
	if err := runHarness(harnessConfig{
		jsonOut:     outPath,
		compareFile: basePath,
		filter:      "Electrode",
		benchTime:   10 * time.Millisecond,
		thresholds:  benchharness.DefaultThresholds(),
	}, &out); err != nil {
		t.Fatalf("runHarness: %v\n%s", err, out.String())
	}
	cur, err := readSuite(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if cur.GOMAXPROCS != want {
		t.Errorf("harness ran at GOMAXPROCS %d, want the baseline's %d", cur.GOMAXPROCS, want)
	}
}
