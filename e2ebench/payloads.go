package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync"

	"medsen"
	"medsen/internal/cipher"
	"medsen/internal/cloud"
	"medsen/internal/controller"
	"medsen/internal/csvio"
	"medsen/internal/drbg"
	"medsen/internal/sensor"
)

// cd4Bands stratifies drawn concentrations (cells/µL) across the CD4
// staging bands, so every run covers sparse and dense captures alike.
var cd4Bands = [][2]float64{{50, 200}, {200, 350}, {350, 500}, {500, 800}}

// concentration draws capture i's concentration from band i mod 4 (warm-up
// captures have negative i).
func concentration(i int, rng *rand.Rand) float64 {
	n := len(cd4Bands)
	b := cd4Bands[(i%n+n)%n]
	return b[0] + rng.Float64()*(b[1]-b[0])
}

// deriveSeed gives every generated input its own seed from the run seed.
func deriveSeed(seed uint64, stream string, i int) uint64 {
	h := seed ^ 0x9E3779B97F4A7C15
	for _, c := range []byte(stream) {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	h ^= uint64(i) * 0xBF58476D1CE4E5B9
	h ^= h >> 31
	return h
}

// pooled is one pre-synthesized encrypted capture and the report a correct
// analysis of it must produce.
type pooled struct {
	payload []byte
	ref     cloud.Report
}

// synthesizePool encrypts and encodes n captures of durationS seconds, as a
// device would before upload, and analyzes each locally for reference.
//
// The pool is re-sent under fresh idempotency keys, so payload bytes repeat
// across keys. That is only because synthesis is expensive (about 0.17 s per
// 10 s capture): a cache keyed on payload bytes would hit here and never in
// deployment, so it is not a gain on ingest or batch.
func synthesizePool(seed uint64, n int, durationS float64) ([]pooled, error) {
	pool := make([]pooled, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	const workers = 2
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < n; i += workers {
				pool[i], errs[i] = synthesize(seed, i, durationS)
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pool, nil
}

func synthesize(seed uint64, i int, durationS float64) (pooled, error) {
	s := sensor.NewDefault()
	rng := drbg.NewFromSeed(deriveSeed(seed, "pool", i))
	// The controller's key parameters: the deployment gain range.
	ctrl, err := controller.New(s, rng)
	if err != nil {
		return pooled{}, err
	}
	conc := concentration(i, rand.New(rand.NewPCG(seed, uint64(i))))
	schedule, err := cipher.Generate(ctrl.Params, durationS, rng)
	if err != nil {
		return pooled{}, err
	}
	res, err := s.Acquire(sensor.AcquireConfig{
		Sample:    medsen.NewBloodSample(10, conc),
		DurationS: durationS,
		Schedule:  schedule,
	}, rng)
	if err != nil {
		return pooled{}, err
	}
	payload, err := csvio.CompressAcquisition(res.Acquisition)
	if err != nil {
		return pooled{}, err
	}
	ref, err := referenceReport(payload)
	if err != nil {
		return pooled{}, err
	}
	return pooled{payload: payload, ref: ref}, nil
}

// referenceReport analyzes a payload in-process, normalized through JSON as
// the report would arrive over the wire.
func referenceReport(payload []byte) (cloud.Report, error) {
	acq, err := csvio.DecompressAcquisition(payload)
	if err != nil {
		return cloud.Report{}, err
	}
	r, err := cloud.Analyze(acq, cloud.DefaultAnalysisConfig())
	if err != nil {
		return cloud.Report{}, err
	}
	return normalized(r)
}

func normalized(r cloud.Report) (cloud.Report, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return cloud.Report{}, err
	}
	var out cloud.Report
	if err := json.Unmarshal(b, &out); err != nil {
		return cloud.Report{}, fmt.Errorf("normalizing report: %w", err)
	}
	return out, nil
}
