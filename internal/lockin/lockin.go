// Package lockin models the data-acquisition chain of §VI-D: a multi-carrier
// impedance spectroscope (the paper's Zurich Instruments HF2IS) driving the
// electrode array with up to eight simultaneous AC carriers, demodulating
// the output current per carrier, low-pass filtering at 120 Hz and sampling
// the demodulated envelope at 450 Hz.
//
// The package renders the pulse events produced by the electrode model into
// normalized voltage traces with the baseline drift (fluid concentration and
// temperature, §VI-C) and front-end noise a real acquisition exhibits, so
// the cloud pipeline must genuinely detrend and threshold to recover peaks.
// The noise comes from ChaCha8 streams keyed by a single DRBG draw per
// render: it stands in for analog physics, so it needs Gaussian statistics
// and replayability, not the DRBG's secrecy.
package lockin

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"

	"medsen/internal/drbg"
	"medsen/internal/electrode"
	"medsen/internal/sigproc"
)

// DefaultCarriersHz returns the paper's excitation carrier set:
// [500, 800, 1000, 1200, 1400, 2000, 3000, 4000] kHz (§VI-D).
func DefaultCarriersHz() []float64 {
	return []float64{500e3, 800e3, 1000e3, 1200e3, 1400e3, 2000e3, 3000e3, 4000e3}
}

// Config holds the acquisition parameters of §VI-D.
type Config struct {
	// SampleRateHz is the demodulated output sampling rate (450 Hz).
	SampleRateHz float64
	// CutoffHz is the output low-pass filter corner (120 Hz).
	CutoffHz float64
	// ExcitationV is the per-carrier excitation amplitude (1 V).
	ExcitationV float64
	// NoiseSigma is the standard deviation of additive front-end noise on
	// the normalized output.
	NoiseSigma float64
	// Drift configures the slow baseline wander the cloud must detrend.
	Drift Drift
}

// Drift models the slow baseline changes of §VI-C: fluid concentration
// changes over long acquisitions and temperature drift. Magnitudes are
// relative to the normalized baseline of 1.0, per hour of acquisition.
type Drift struct {
	// LinearPerHour is the linear baseline slope.
	LinearPerHour float64
	// QuadraticPerHour2 is the quadratic term coefficient.
	QuadraticPerHour2 float64
	// WaveAmplitude and WavePeriodS add a slow sinusoidal component
	// (e.g. room-temperature regulation cycles).
	WaveAmplitude float64
	WavePeriodS   float64
}

// DefaultConfig returns the paper's acquisition settings with calibrated
// noise and drift levels.
func DefaultConfig() Config {
	return Config{
		SampleRateHz: 450,
		CutoffHz:     120,
		ExcitationV:  1.0,
		NoiseSigma:   0.00025,
		Drift: Drift{
			LinearPerHour:     -0.04,
			QuadraticPerHour2: 0.01,
			WaveAmplitude:     0.002,
			WavePeriodS:       240,
		},
	}
}

// Validate checks the acquisition configuration.
func (c Config) Validate() error {
	if c.SampleRateHz <= 0 {
		return fmt.Errorf("lockin: non-positive sample rate %v", c.SampleRateHz)
	}
	if c.CutoffHz <= 0 || c.CutoffHz >= c.SampleRateHz/2 {
		return fmt.Errorf("lockin: cutoff %v must be in (0, Nyquist=%v)", c.CutoffHz, c.SampleRateHz/2)
	}
	if c.ExcitationV <= 0 {
		return fmt.Errorf("lockin: non-positive excitation %v", c.ExcitationV)
	}
	if c.NoiseSigma < 0 {
		return fmt.Errorf("lockin: negative noise sigma %v", c.NoiseSigma)
	}
	return nil
}

// baselineAt evaluates the drift model at time t.
func (d Drift) baselineAt(tS float64) float64 {
	h := tS / 3600
	b := 1 + d.LinearPerHour*h + d.QuadraticPerHour2*h*h
	if d.WaveAmplitude != 0 && d.WavePeriodS > 0 {
		b += d.WaveAmplitude * math.Sin(2*math.Pi*tS/d.WavePeriodS)
	}
	return b
}

// Acquisition is a multi-carrier capture: one demodulated trace per
// excitation carrier, all sharing the same clock.
type Acquisition struct {
	// CarriersHz lists the excitation frequencies, index-aligned with
	// Traces.
	CarriersHz []float64
	// Traces holds one normalized demodulated trace per carrier.
	Traces []sigproc.Trace
}

// Channel returns the trace for the given carrier frequency.
func (a Acquisition) Channel(freqHz float64) (sigproc.Trace, error) {
	for i, f := range a.CarriersHz {
		if f == freqHz {
			return a.Traces[i], nil
		}
	}
	return sigproc.Trace{}, fmt.Errorf("lockin: no channel at %v Hz (have %v)", freqHz, a.CarriersHz)
}

// Duration returns the capture length in seconds (0 for an empty capture).
func (a Acquisition) Duration() float64 {
	if len(a.Traces) == 0 {
		return 0
	}
	return a.Traces[0].Duration()
}

// renderScratch holds the per-render working memory that never escapes:
// the shared drift baseline, the render's noise seed and one noise stream
// per carrier. Pooled contents are fully overwritten (the streams
// re-seeded) before every use (DESIGN.md §6 rule 1).
type renderScratch struct {
	baseline []float64
	seed     [32]byte
	noise    []*noiseStream
}

// noiseStream is one carrier's front-end noise source: a ChaCha8 stream
// and the rand.Rand that draws normals from it. It is held by pointer
// because rng points into src.
type noiseStream struct {
	src rand.ChaCha8
	rng *rand.Rand
}

var renderPool = sync.Pool{New: func() any { return new(renderScratch) }}

// growFloats returns s resized to n, reusing its backing array when large
// enough. Contents are unspecified; callers overwrite every element.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Render converts per-carrier pulse event lists into a sampled multi-carrier
// acquisition. pulsesByCarrier[i] holds the voltage-drop events for
// carriersHz[i]; durationS is the capture window. rng seeds the front-end
// noise and may be nil for a noiseless render (unit tests, ground truth).
func Render(
	carriersHz []float64,
	pulsesByCarrier [][]electrode.Pulse,
	durationS float64,
	cfg Config,
	rng *drbg.DRBG,
) (Acquisition, error) {
	return RenderWorkers(carriersHz, pulsesByCarrier, durationS, cfg, rng, 1)
}

// RenderWorkers is Render with explicit carrier-level parallelism: workers
// caps the number of goroutines synthesizing carriers (0 = GOMAXPROCS,
// 1 = serial). Every worker count produces bitwise-identical traces: each
// carrier's synthesis runs independently over a disjoint output slice with
// the exact arithmetic of the serial path, and draws its front-end noise
// from its own stream, keyed by the render's seed and the carrier index.
//
// The noise models the analog front end, which is physics rather than a
// secret, so it does not come from the DRBG sample by sample: a noisy
// render takes exactly one 32-byte Generate from rng and keys every
// carrier's ChaCha8 stream from it. A nil rng or zero NoiseSigma consumes
// nothing.
func RenderWorkers(
	carriersHz []float64,
	pulsesByCarrier [][]electrode.Pulse,
	durationS float64,
	cfg Config,
	rng *drbg.DRBG,
	workers int,
) (Acquisition, error) {
	if err := cfg.Validate(); err != nil {
		return Acquisition{}, err
	}
	if len(carriersHz) == 0 {
		return Acquisition{}, fmt.Errorf("lockin: no carriers")
	}
	if len(pulsesByCarrier) != len(carriersHz) {
		return Acquisition{}, fmt.Errorf("lockin: %d pulse lists for %d carriers",
			len(pulsesByCarrier), len(carriersHz))
	}
	if durationS <= 0 {
		return Acquisition{}, fmt.Errorf("lockin: non-positive duration %v", durationS)
	}
	n := int(durationS * cfg.SampleRateHz)
	if n < 1 {
		return Acquisition{}, fmt.Errorf("lockin: duration %v too short for rate %v", durationS, cfg.SampleRateHz)
	}

	nc := len(carriersHz)
	acq := Acquisition{
		CarriersHz: append([]float64(nil), carriersHz...),
		Traces:     make([]sigproc.Trace, nc),
	}
	// One backing array serves every carrier's output trace: the traces
	// are results (they outlive the call), but nc allocations collapse
	// into one and the samples stay cache-adjacent.
	backing := make([]float64, nc*n)

	scratch := renderPool.Get().(*renderScratch)
	defer renderPool.Put(scratch)

	// The drift baseline depends only on the sample clock, which every
	// carrier shares: evaluate it once and seed each carrier with a copy
	// (bitwise identical to evaluating per carrier, at 1/len(carriers) the
	// trig cost).
	scratch.baseline = growFloats(scratch.baseline, n)
	baseline := scratch.baseline
	for i := range baseline {
		baseline[i] = cfg.Drift.baselineAt(float64(i) / cfg.SampleRateHz)
	}

	// Front-end noise: one DRBG draw is the render's noise seed. Carrier ci
	// keys its stream with the seed's first word XORed with ci, so each
	// carrier's noise is independent of the others and of which worker
	// renders it.
	withNoise := rng != nil && cfg.NoiseSigma > 0
	if withNoise {
		if err := rng.Generate(scratch.seed[:]); err != nil {
			return Acquisition{}, fmt.Errorf("lockin: seeding noise stream: %w", err)
		}
		for len(scratch.noise) < nc {
			ns := new(noiseStream)
			ns.rng = rand.New(&ns.src)
			scratch.noise = append(scratch.noise, ns)
		}
	}

	renderCarrier := func(ci int) {
		samples := backing[ci*n : (ci+1)*n : (ci+1)*n]
		copy(samples, baseline)
		// Superimpose Gaussian dips; each pulse touches only ±4σ.
		for _, p := range pulsesByCarrier[ci] {
			if p.SigmaS <= 0 {
				continue
			}
			lo := int((p.TimeS - 4*p.SigmaS) * cfg.SampleRateHz)
			hi := int((p.TimeS+4*p.SigmaS)*cfg.SampleRateHz) + 1
			if lo < 0 {
				lo = 0
			}
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				t := float64(i) / cfg.SampleRateHz
				d := (t - p.TimeS) / p.SigmaS
				samples[i] -= p.Amplitude * math.Exp(-0.5*d*d) * samples[i]
			}
		}
		// Front-end noise after demodulation.
		if withNoise {
			key := scratch.seed
			binary.LittleEndian.PutUint64(key[:8], binary.LittleEndian.Uint64(key[:8])^uint64(ci))
			ns := scratch.noise[ci]
			ns.src.Seed(key)
			for i := range samples {
				samples[i] += cfg.NoiseSigma * ns.rng.NormFloat64()
			}
		}
		tr := sigproc.Trace{Rate: cfg.SampleRateHz, Samples: samples}
		// The output low-pass filter shapes the noise floor.
		sigproc.LowPassInPlace(tr, cfg.CutoffHz)
		acq.Traces[ci] = tr
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nc {
		workers = nc
	}
	if workers <= 1 {
		for ci := 0; ci < nc; ci++ {
			renderCarrier(ci)
		}
		return acq, nil
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ci := w; ci < nc; ci += workers {
				renderCarrier(ci)
			}
		}(w)
	}
	wg.Wait()
	return acq, nil
}
