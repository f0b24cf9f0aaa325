package experiments

import (
	"bytes"
	"math"
	"testing"

	"medsen/internal/microfluidic"
)

// quickOpts are the test-scale options; seeds are fixed so assertions are
// deterministic.
func quickOpts() Options { return Options{Seed: 2016, Quick: true} }

func TestFig07ShapeMatchesPaper(t *testing.T) {
	r, err := Fig07SingleCellDrop(quickOpts())
	if err != nil {
		t.Fatalf("Fig07: %v", err)
	}
	// §VII-A: a single clean drop, ~20 ms wide, fraction-of-a-percent
	// deep.
	if r.FullWidthMs < 5 || r.FullWidthMs > 40 {
		t.Errorf("pulse width %.1f ms, want ~10-30", r.FullWidthMs)
	}
	if r.PeakDepth < 0.001 || r.PeakDepth > 0.02 {
		t.Errorf("peak depth %v out of plausible range", r.PeakDepth)
	}
	if len(r.Waveform) == 0 {
		t.Error("no waveform series")
	}
	var buf bytes.Buffer
	PrintFig07(&buf, r)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestFig08FivePeaks(t *testing.T) {
	r, err := Fig08FivePeakSignature(quickOpts())
	if err != nil {
		t.Fatalf("Fig08: %v", err)
	}
	if r.PeakCount != 5 {
		t.Fatalf("peak count %d, want the paper's 5", r.PeakCount)
	}
	for i := 1; i < len(r.PeakTimesS); i++ {
		if r.PeakTimesS[i] <= r.PeakTimesS[i-1] {
			t.Fatal("peak times not increasing")
		}
	}
}

func TestFig11SignatureLadder(t *testing.T) {
	r, err := Fig11EncryptedSignatures(quickOpts())
	if err != nil {
		t.Fatalf("Fig11: %v", err)
	}
	if len(r.Configs) != 4 {
		t.Fatalf("configs = %d", len(r.Configs))
	}
	wantExpected := []int{1, 3, 5, 17}
	for i, c := range r.Configs {
		if c.ExpectedPeaks != wantExpected[i] {
			t.Errorf("%s: expected-peaks %d, want %d", c.Label, c.ExpectedPeaks, wantExpected[i])
		}
		if c.DetectedPeaks != c.ExpectedPeaks {
			t.Errorf("%s: detected %d, want %d", c.Label, c.DetectedPeaks, c.ExpectedPeaks)
		}
	}
}

func TestFig12And13CountSweeps(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(Options) (CountSweepResult, error)
	}{
		{"fig12-7.8um", Fig12BeadCounts780},
		{"fig13-3.58um", Fig13BeadCounts358},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := tc.run(quickOpts())
			if err != nil {
				t.Fatalf("sweep: %v", err)
			}
			if len(r.Points) < 4 {
				t.Fatalf("too few points: %d", len(r.Points))
			}
			// Monotone increasing measured counts.
			for i := 1; i < len(r.Points); i++ {
				if r.Points[i].MeasuredMean <= r.Points[i-1].MeasuredMean {
					t.Errorf("measured counts not increasing at point %d", i)
				}
			}
			// Linear with deficit: slope below 1 but clearly positive
			// (beads sink and adsorb, §VII-B).
			if r.Slope <= 0.4 || r.Slope >= 1.0 {
				t.Errorf("slope %.3f, want in (0.4, 1.0)", r.Slope)
			}
		})
	}
}

func TestFig14ProfilesAndScaling(t *testing.T) {
	r, err := Fig14PeakAnalysisPerformance(quickOpts())
	if err != nil {
		t.Fatalf("Fig14: %v", err)
	}
	if len(r.Cells) != 4 { // 2 sizes × 2 profiles in quick mode
		t.Fatalf("cells = %d", len(r.Cells))
	}
	if r.PhoneSlowdown < 1.3 {
		t.Errorf("phone slowdown %.2f, want clearly > 1 (paper ~4)", r.PhoneSlowdown)
	}
	for _, c := range r.Cells {
		if c.Elapsed <= 0 {
			t.Errorf("cell %+v has no timing", c)
		}
	}
}

func TestFig15SpectraShape(t *testing.T) {
	r, err := Fig15ImpedanceSpectra(quickOpts())
	if err != nil {
		t.Fatalf("Fig15: %v", err)
	}
	var blood, b358, b780 Fig15Row
	for _, row := range r.Rows {
		switch row.Particle {
		case microfluidic.TypeBloodCell:
			blood = row
		case microfluidic.TypeBead358:
			b358 = row
		case microfluidic.TypeBead780:
			b780 = row
		}
	}
	// Fig. 15a: blood responds less at ≥ 2 MHz than at 500 kHz.
	if blood.DepthByFreq[3000e3] >= blood.DepthByFreq[500e3]*0.85 {
		t.Errorf("blood roll-off missing: %v", blood.DepthByFreq)
	}
	// Bead spectra stay flat within noise.
	for _, row := range []Fig15Row{b358, b780} {
		lo, hi := row.DepthByFreq[500e3], row.DepthByFreq[3000e3]
		if math.Abs(hi-lo)/lo > 0.2 {
			t.Errorf("%v spectrum not flat: %v", row.Particle, row.DepthByFreq)
		}
	}
	// Amplitude ordering at 500 kHz: 7.8 > blood > 3.58 (§VI-B).
	if !(b780.DepthByFreq[500e3] > blood.DepthByFreq[500e3] &&
		blood.DepthByFreq[500e3] > b358.DepthByFreq[500e3]) {
		t.Errorf("amplitude ordering violated: 7.8=%v blood=%v 3.58=%v",
			b780.DepthByFreq[500e3], blood.DepthByFreq[500e3], b358.DepthByFreq[500e3])
	}
}

func TestFig16ClusterAccuracy(t *testing.T) {
	r, err := Fig16Clusters(quickOpts())
	if err != nil {
		t.Fatalf("Fig16: %v", err)
	}
	if len(r.Points) < 20 {
		t.Fatalf("too few cluster points: %d", len(r.Points))
	}
	// "The proposed solution is able to differentiate different types of
	// synthetic beads and actual blood cells with clear margins."
	if r.Accuracy < 0.85 {
		t.Fatalf("classification accuracy %.3f, want >= 0.85", r.Accuracy)
	}
	for _, typ := range microfluidic.AllTypes() {
		if r.CountByTruth[typ] == 0 {
			t.Errorf("no %v points in the cluster plot", typ)
		}
	}
}

func TestKeySizeMatchesEq2(t *testing.T) {
	r, err := KeySizeAccounting(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.IdealBits != 1040000 {
		t.Fatalf("ideal key bits %d, want 1 040 000", r.IdealBits)
	}
	if r.IdealMB < 0.11 || r.IdealMB > 0.14 {
		t.Fatalf("ideal key %.3f MB, paper says 0.12", r.IdealMB)
	}
	if r.EpochBits <= 0 {
		t.Fatal("no epoch schedule size")
	}
}

func TestCompressionRatio(t *testing.T) {
	r, err := CompressionExperiment(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports 2.5×; synthetic noise compresses differently but
	// the payload must shrink noticeably.
	if r.Ratio < 1.5 {
		t.Fatalf("compression ratio %.2f, want > 1.5", r.Ratio)
	}
	if r.ProjectedRawGB3h <= 0 {
		t.Fatal("no 3h projection")
	}
}

func TestEndToEndUnderBudget(t *testing.T) {
	r, err := EndToEndTiming(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~0.2 s on 2016 hardware. Allow slack for loaded CI hosts but
	// the order of magnitude must hold.
	if r.Total.Seconds() > 2.0 {
		t.Fatalf("post-acquisition pipeline took %.3f s, want well under 2 s", r.Total.Seconds())
	}
	if r.RecoveredCount <= 0 {
		t.Fatal("nothing recovered")
	}
	if r.Decrypt >= r.Analyze {
		t.Errorf("decryption (%v) should be far cheaper than analysis (%v)", r.Decrypt, r.Analyze)
	}
}

func TestAuthAccuracyHigh(t *testing.T) {
	r, err := AuthAccuracy(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.LoginAttempts == 0 {
		t.Fatal("no logins ran")
	}
	if r.TrueAcceptRate() < 0.99 {
		t.Fatalf("true accept rate %.3f (%d/%d, %d wrong-user, %d rejected)",
			r.TrueAcceptRate(), r.TrueAccepts, r.LoginAttempts, r.WrongUser, r.Rejected)
	}
	if r.ImpostorAccepts != 0 {
		t.Fatalf("impostors accepted: %d of %d", r.ImpostorAccepts, r.ImpostorAttempts)
	}
}

func TestGainAblationShowsProtection(t *testing.T) {
	r, err := GainRandomizationAblation(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Without gains the amplitude-run attack should do much better
	// (smaller error) than against the full cipher.
	if r.ErrWithoutGains >= r.ErrWithGains {
		t.Fatalf("gain randomization shows no effect: with %.3f, without %.3f",
			r.ErrWithGains, r.ErrWithoutGains)
	}
	if r.ErrWithGains < 0.5 {
		t.Fatalf("attack against full cipher too accurate: err %.3f", r.ErrWithGains)
	}
}

func TestSpeedAblationShowsProtection(t *testing.T) {
	r, err := SpeedRandomizationAblation(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// With the S component active, observed widths of a single cell type
	// must spread far more than the natural velocity jitter alone.
	if r.WidthCVWithSpeed < 1.5*r.WidthCVWithoutSpeed {
		t.Fatalf("speed randomization shows no effect: CV with %.3f, without %.3f",
			r.WidthCVWithSpeed, r.WidthCVWithoutSpeed)
	}
}

func TestEpochAblationKeySizeTradeoff(t *testing.T) {
	r, err := EpochLengthAblation(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Longer epochs → smaller schedules.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].ScheduleKB >= r.Rows[i-1].ScheduleKB {
			t.Errorf("schedule size should shrink with epoch length: %+v", r.Rows)
		}
	}
	// Decryption stays accurate across epoch lengths.
	for _, row := range r.Rows {
		if row.CountErr > 0.15 {
			t.Errorf("epoch %.2f s: count error %.3f too high", row.EpochS, row.CountErr)
		}
	}
}

func TestDetrendAblationPrefersOrderTwo(t *testing.T) {
	r, err := DetrendAblation(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	best := DetrendAblationRow{F1: -1}
	var order0Best float64
	for _, row := range r.Rows {
		if row.F1 > best.F1 {
			best = row
		}
		if row.Degree == 0 && row.F1 > order0Best {
			order0Best = row.F1
		}
	}
	// §VI-C: order 2 was found optimal; at minimum, order ≥ 1 must beat
	// pure mean-removal on a strongly curved baseline.
	if best.Degree == 0 {
		t.Fatalf("order-0 detrending should not win: %+v", r.Rows)
	}
	if best.F1 < 0.9 {
		t.Fatalf("best F1 %.3f too low", best.F1)
	}
	if order0Best >= best.F1 {
		t.Fatalf("order-0 (%.3f) not worse than best (%.3f)", order0Best, best.F1)
	}
}

func TestBeadLevelAblationTradeoff(t *testing.T) {
	r, err := BeadLevelAblation(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].SpaceSize <= r.Rows[i-1].SpaceSize {
			t.Errorf("password space should grow with levels")
		}
		if r.Rows[i].WorstLevelRisk < r.Rows[i-1].WorstLevelRisk {
			t.Errorf("collision risk should not shrink as levels pack tighter")
		}
	}
}

func TestPrintersProduceOutput(t *testing.T) {
	o := quickOpts()
	var buf bytes.Buffer

	f8, err := Fig08FivePeakSignature(o)
	if err != nil {
		t.Fatal(err)
	}
	PrintFig08(&buf, f8)

	f11, err := Fig11EncryptedSignatures(o)
	if err != nil {
		t.Fatal(err)
	}
	PrintFig11(&buf, f11)

	f15, err := Fig15ImpedanceSpectra(o)
	if err != nil {
		t.Fatal(err)
	}
	PrintFig15(&buf, f15)

	ks, err := KeySizeAccounting(o)
	if err != nil {
		t.Fatal(err)
	}
	PrintKeySize(&buf, ks)

	if buf.Len() < 200 {
		t.Fatalf("printers produced too little output: %d bytes", buf.Len())
	}
}

func TestSchemeComparison(t *testing.T) {
	r, err := SchemeComparison(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Both schemes must decrypt accurately on a clean sample.
	if r.EpochCountErr > 0.15 {
		t.Errorf("epoch count error %.3f", r.EpochCountErr)
	}
	if r.PerCellCountErr > 0.15 {
		t.Errorf("per-cell count error %.3f", r.PerCellCountErr)
	}
	// Key accounting is reported for both schemes. Which is larger
	// depends on the cell rate versus the epoch rate: the paper's 20 K
	// cells dwarf any epoch schedule, while dilute captures flip the
	// ordering — the comparison makes that trade-off visible.
	if r.PerCellKeyBits <= 0 || r.EpochKeyBits <= 0 {
		t.Errorf("key sizes missing: per-cell %d, epoch %d", r.PerCellKeyBits, r.EpochKeyBits)
	}
	// Both leave the analyst with residual aggregate uncertainty.
	if r.EpochEntropyBits < 1 || r.PerCellEntropyBits < 1 {
		t.Errorf("posterior entropies %.2f / %.2f, want > 1 bit",
			r.EpochEntropyBits, r.PerCellEntropyBits)
	}
}

func TestDesignComparison(t *testing.T) {
	r, err := DesignComparison(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want the 4 fabricated designs", len(r.Rows))
	}
	wantOutputs := []int{2, 3, 5, 9}
	for i, row := range r.Rows {
		if row.Outputs != wantOutputs[i] {
			t.Errorf("row %d outputs %d", i, row.Outputs)
		}
		if row.MaxFactor != 1+2*(row.Outputs-1) {
			t.Errorf("%d outputs: max factor %d", row.Outputs, row.MaxFactor)
		}
		if row.CountErr > 0.2 {
			t.Errorf("%d outputs: count error %.3f", row.Outputs, row.CountErr)
		}
		if i > 0 {
			prev := r.Rows[i-1]
			if row.RegionUm <= prev.RegionUm {
				t.Errorf("region length should grow with outputs")
			}
			if row.KeyBitsPerEpoch <= prev.KeyBitsPerEpoch {
				t.Errorf("key material should grow with outputs")
			}
		}
	}
	// The 9-output design injects strictly more per-particle confusion
	// than the 2-output design.
	if r.Rows[3].FactorEntropyBits <= r.Rows[0].FactorEntropyBits {
		t.Errorf("factor entropy should grow with outputs: %v vs %v",
			r.Rows[3].FactorEntropyBits, r.Rows[0].FactorEntropyBits)
	}
}

func TestNoiseRobustness(t *testing.T) {
	r, err := NoiseRobustness(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// SNR degrades monotonically with the noise floor.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].SNRdB >= r.Rows[i-1].SNRdB {
			t.Errorf("SNR should fall with noise: %+v", r.Rows)
		}
	}
	// At the calibrated noise level the pipeline holds.
	if r.Rows[0].DetectRatio < 0.85 || r.Rows[0].CountErr > 0.15 {
		t.Errorf("low-noise row degraded: %+v", r.Rows[0])
	}
}

// TestRepeatability asserts the §VI-B claim over a fixed pool of seeds
// rather than one stream: bigger samples give tighter counts on average and
// on a clear majority of seeds. With four runs per row a single seed's CV
// is itself noisy, so one unlucky draw may invert its pair; the pooled
// statement is what the claim is about. The seed pool and the thresholds
// were fixed before the test was first run.
func TestRepeatability(t *testing.T) {
	const (
		seeds      = 16
		minShrinks = 12
	)
	var firstSum, lastSum float64
	shrinks := 0
	for seed := uint64(1); seed <= seeds; seed++ {
		r, err := Repeatability(Options{Seed: seed, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) < 2 {
			t.Fatalf("seed %d: rows = %d", seed, len(r.Rows))
		}
		for i, row := range r.Rows {
			if row.MeanCount <= 0 {
				t.Fatalf("seed %d row %d: no counts", seed, i)
			}
			// The measured CV should sit near the Poisson floor — not
			// more than ~3× above it (coincidence and detection add a
			// little).
			if row.CV > 3*row.PredictedCV+0.02 {
				t.Errorf("seed %d row %d: CV %.3f far above Poisson floor %.3f",
					seed, i, row.CV, row.PredictedCV)
			}
		}
		first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
		if last.MeanCount <= first.MeanCount {
			t.Fatalf("seed %d: sweep did not scale counts: %v", seed, r.Rows)
		}
		firstSum += first.CV
		lastSum += last.CV
		if last.CV < first.CV {
			shrinks++
		}
	}
	firstMean, lastMean := firstSum/seeds, lastSum/seeds
	t.Logf("mean CV %.3f -> %.3f; shrinks on %d/%d seeds", firstMean, lastMean, shrinks, seeds)
	// Bigger samples → tighter counts (the §VI-B claim).
	if lastMean >= firstMean {
		t.Errorf("mean CV should shrink with sample size: %.3f -> %.3f", firstMean, lastMean)
	}
	if shrinks < minShrinks {
		t.Errorf("CV shrank on %d/%d seeds, want >= %d", shrinks, seeds, minShrinks)
	}
}
