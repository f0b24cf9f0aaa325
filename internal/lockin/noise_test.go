package lockin

import (
	"fmt"
	"math"
	"testing"

	"medsen/internal/drbg"
	"medsen/internal/electrode"
	"medsen/internal/sigproc"
)

// The render's contract with the DRBG: a noisy render takes exactly one
// 32-byte Generate (the noise-stream seed), whatever the carrier count,
// duration or worker count, and a noiseless one takes nothing. Everything
// drawn after the render (the next capture's transits, say) therefore
// lines up with a fresh generator advanced by that one draw.
func TestRenderConsumesOneGenerate(t *testing.T) {
	nextAfter := func(seed uint64, draws int) uint64 {
		ref := drbg.NewFromSeed(seed)
		var buf [32]byte
		for i := 0; i < draws; i++ {
			if err := ref.Generate(buf[:]); err != nil {
				t.Fatal(err)
			}
		}
		return ref.Uint64()
	}
	noiseless := DefaultConfig()
	noiseless.NoiseSigma = 0
	for _, nc := range []int{1, 3, 8} {
		for _, durationS := range []float64{0.5, 7.3, 30} {
			for _, workers := range []int{0, 1, 2, 5} {
				name := fmt.Sprintf("carriers=%d/duration=%v/workers=%d", nc, durationS, workers)
				carriers := DefaultCarriersHz()[:nc]
				pulses := make([][]electrode.Pulse, nc)
				for _, tc := range []struct {
					cfg   Config
					draws int
				}{{DefaultConfig(), 1}, {noiseless, 0}} {
					seed := uint64(100*nc + workers)
					rng := drbg.NewFromSeed(seed)
					if _, err := RenderWorkers(carriers, pulses, durationS, tc.cfg, rng, workers); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got, want := rng.Uint64(), nextAfter(seed, tc.draws); got != want {
						t.Errorf("%s sigma=%v: DRBG not advanced by exactly %d Generate(32)",
							name, tc.cfg.NoiseSigma, tc.draws)
					}
				}
			}
		}
	}
	// A nil rng renders noiselessly: bitwise the zero-sigma render.
	carriers := DefaultCarriersHz()
	pulses := make([][]electrode.Pulse, len(carriers))
	a, err := Render(carriers, pulses, 2, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Render(carriers, pulses, 2, noiseless, drbg.NewFromSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for ci := range carriers {
		for i, v := range a.Traces[ci].Samples {
			if v != b.Traces[ci].Samples[i] {
				t.Fatalf("carrier %d sample %d: nil-rng render %v != noiseless %v", ci, i, v, b.Traces[ci].Samples[i])
			}
		}
	}
}

// The ChaCha8 noise streams must be statistically the noise they replaced:
// (noisy − noiseless) render, with no pulses and no drift, is the filtered
// noise alone. Its mean is ≈0 per carrier, its standard deviation matches,
// within ±3%, the same count of drbg.NormFloat64 normals scaled by
// NoiseSigma and passed through the same output low-pass filter, and no two
// carriers' noise is correlated (each carrier keys its own stream).
func TestNoiseMatchesDRBGNormals(t *testing.T) {
	const durationS = 30
	cfg := DefaultConfig()
	cfg.Drift = Drift{}
	carriers := DefaultCarriersHz()
	pulses := make([][]electrode.Pulse, len(carriers))
	noisy, err := Render(carriers, pulses, durationS, cfg, drbg.NewFromSeed(12))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Render(carriers, pulses, durationS, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	ref := drbg.NewFromSeed(12)
	var diffs, refs []float64
	perCarrier := make([][]float64, len(carriers))
	for ci := range carriers {
		n := len(noisy.Traces[ci].Samples)
		diff := make([]float64, n)
		for i := range diff {
			diff[i] = noisy.Traces[ci].Samples[i] - clean.Traces[ci].Samples[i]
		}
		sd := sigproc.StdDev(diff)
		if mean := sigproc.Mean(diff); math.Abs(mean) > 0.1*sd {
			t.Errorf("carrier %d: noise mean %.3g, want ≈0 (sd %.3g)", ci, mean, sd)
		}
		diffs = append(diffs, diff...)
		perCarrier[ci] = diff

		want := make([]float64, n)
		for i := range want {
			want[i] = cfg.NoiseSigma * ref.NormFloat64()
		}
		sigproc.LowPassInPlace(sigproc.Trace{Rate: cfg.SampleRateHz, Samples: want}, cfg.CutoffHz)
		refs = append(refs, want...)
	}
	// With ~10⁴ samples per carrier, independent streams correlate at
	// about ±0.01; a shared stream would read 1.
	for a := range perCarrier {
		for b := a + 1; b < len(perCarrier); b++ {
			if r := correlation(perCarrier[a], perCarrier[b]); math.Abs(r) > 0.05 {
				t.Errorf("carriers %d and %d: noise correlation %.3f, want ≈0", a, b, r)
			}
		}
	}
	got, want := sigproc.StdDev(diffs), sigproc.StdDev(refs)
	ratio := got / want
	t.Logf("filtered noise sd %.4g, DRBG-normal reference %.4g, ratio %.4f", got, want, ratio)
	if math.Abs(ratio-1) > 0.03 {
		t.Errorf("filtered noise sd %.4g vs DRBG-normal reference %.4g (ratio %.4f), want within ±3%%",
			got, want, ratio)
	}
}

// correlation returns the Pearson correlation of two equal-length series.
func correlation(x, y []float64) float64 {
	mx, my := sigproc.Mean(x), sigproc.Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	return sxy / math.Sqrt(sxx*syy)
}
