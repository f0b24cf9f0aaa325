package benchharness

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"medsen"
	"medsen/internal/classify"
	"medsen/internal/cloud"
	"medsen/internal/csvio"
	"medsen/internal/diagnosis"
	"medsen/internal/drbg"
	"medsen/internal/electrode"
	"medsen/internal/lockin"
	"medsen/internal/microfluidic"
	"medsen/internal/sensor"
	"medsen/internal/sigproc"
)

// Benchmark is one registered harness workload. Names are stable: they are
// the keys baselines are compared by.
type Benchmark struct {
	Name string
	F    func(b *testing.B)
}

// Benchmarks returns the registered hot-path workloads, in run order. These
// mirror the corresponding testing benchmarks in bench_test.go; the harness
// duplicates the bodies (rather than importing the test file) so a plain
// binary can run them.
func Benchmarks() []Benchmark {
	return []Benchmark{
		{Name: "CloudAnalyze/serial", F: benchCloudAnalyze(1)},
		{Name: "CloudAnalyze/parallel", F: benchCloudAnalyze(0)},
		{Name: "DetrendWorkers/serial", F: benchDetrendWorkers(1)},
		{Name: "DetrendWorkers/gomaxprocs", F: benchDetrendWorkers(0)},
		{Name: "DetectPeaks", F: benchDetectPeaks},
		{Name: "DiagnosticLocal", F: benchDiagnosticLocal},
		{Name: "Microfluidic", F: benchMicrofluidic},
		{Name: "Electrode", F: benchElectrode},
		{Name: "LockinRender", F: benchLockinRender},
		{Name: "ClassifyDiagnose", F: benchClassifyDiagnose},
		{Name: "CloudBatchSubmit", F: benchCloudBatchSubmit},
	}
}

// acquisition300 lazily builds the deterministic 8-carrier 300 s capture the
// cloud-pipeline workloads share (the same capture bench_test.go uses), so
// its multi-second setup cost is paid once per process, outside every
// measured region.
var acquisition300 = sync.OnceValues(func() (lockin.Acquisition, error) {
	s := sensor.NewDefault()
	s.Loss = microfluidic.LossModel{Disabled: true}
	sample := microfluidic.NewSample(10, map[microfluidic.Type]float64{
		microfluidic.TypeBloodCell: 300,
	})
	res, err := s.Acquire(sensor.AcquireConfig{Sample: sample, DurationS: 300}, drbg.NewFromSeed(2016))
	if err != nil {
		return lockin.Acquisition{}, err
	}
	return res.Acquisition, nil
})

// acquisitionBytes is the natural throughput unit for the pipeline
// workloads: total float64 sample bytes processed per operation.
func acquisitionBytes(acq lockin.Acquisition) int64 {
	var n int64
	for _, tr := range acq.Traces {
		n += int64(len(tr.Samples)) * 8
	}
	return n
}

func benchCloudAnalyze(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		acq, err := acquisition300()
		if err != nil {
			b.Fatal(err)
		}
		cfg := cloud.DefaultAnalysisConfig()
		cfg.Workers = workers
		b.SetBytes(acquisitionBytes(acq))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			report, err := cloud.Analyze(acq, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if report.PeakCount == 0 {
				b.Fatal("no peaks")
			}
		}
	}
}

func benchDetrendWorkers(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		acq, err := acquisition300()
		if err != nil {
			b.Fatal(err)
		}
		tr := acq.Traces[0]
		b.SetBytes(int64(len(tr.Samples)) * 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sigproc.DetrendWorkers(tr, sigproc.DefaultDetrendConfig(), workers); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchDetectPeaks(b *testing.B) {
	acq, err := acquisition300()
	if err != nil {
		b.Fatal(err)
	}
	flat, err := sigproc.Detrend(acq.Traces[0], sigproc.DefaultDetrendConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(flat.Samples)) * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if peaks := sigproc.DetectPeaks(flat, sigproc.DefaultPeakConfig()); len(peaks) == 0 {
			b.Fatal("no peaks")
		}
	}
}

func benchDiagnosticLocal(b *testing.B) {
	sample := medsen.NewBloodSample(10, 150)
	analyzer := medsen.NewLocalAnalyzer()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Re-seed outside the timer so every iteration runs the identical
		// diagnostic: a device reused across iterations advances its DRBG and
		// each iteration would measure a different key schedule and particle
		// stream.
		b.StopTimer()
		device, err := medsen.NewDevice(medsen.WithSeed(1))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := device.RunDiagnostic(ctx, medsen.RunConfig{
			Sample: sample, DurationS: 30,
		}, analyzer); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMicrofluidic isolates transit-event generation — the front of the
// simulation stack. A fresh DRBG per iteration keeps the drawn stream (and so
// the work) identical every time.
func benchMicrofluidic(b *testing.B) {
	cfg := microfluidic.GenerateConfig{
		Channel: microfluidic.DefaultChannel(),
		Sample: microfluidic.NewSample(10, map[microfluidic.Type]float64{
			microfluidic.TypeBloodCell: 300,
			microfluidic.TypeBead358:   150,
		}),
		DurationS: 60,
		Loss:      microfluidic.DefaultLossModel(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rng := drbg.NewFromSeed(7)
		b.StartTimer()
		transits, err := microfluidic.GenerateTransits(cfg, rng)
		if err != nil {
			b.Fatal(err)
		}
		if len(transits) == 0 {
			b.Fatal("no transits")
		}
	}
}

// benchElectrode isolates pulse expansion: every generated transit through
// the 9-output array's crossing geometry.
func benchElectrode(b *testing.B) {
	transits, err := microfluidic.GenerateTransits(microfluidic.GenerateConfig{
		Channel: microfluidic.DefaultChannel(),
		Sample: microfluidic.NewSample(10, map[microfluidic.Type]float64{
			microfluidic.TypeBloodCell: 300,
		}),
		DurationS: 60,
		Loss:      microfluidic.DefaultLossModel(),
	}, drbg.NewFromSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	arr := electrode.MustArray(9)
	active := make([]bool, 9)
	for i := range active {
		active[i] = true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, tr := range transits {
			total += len(arr.PulsesForTransit(tr, 500e3, active, nil, 1))
		}
		if total == 0 {
			b.Fatal("no pulses")
		}
	}
}

// benchLockinRender isolates the lock-in render: a 30 s, 8-carrier capture
// with front-end noise on, over the pulses of a fixed blood-cell transit
// stream. A fresh DRBG per iteration keeps the noise seed (and so the work)
// identical every time.
func benchLockinRender(b *testing.B) {
	const durationS = 30
	transits, err := microfluidic.GenerateTransits(microfluidic.GenerateConfig{
		Channel: microfluidic.DefaultChannel(),
		Sample: microfluidic.NewSample(10, map[microfluidic.Type]float64{
			microfluidic.TypeBloodCell: 150,
		}),
		DurationS: durationS,
		Loss:      microfluidic.DefaultLossModel(),
	}, drbg.NewFromSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	arr := electrode.MustArray(9)
	active := make([]bool, 9)
	active[0] = true
	carriers := lockin.DefaultCarriersHz()
	pulses := make([][]electrode.Pulse, len(carriers))
	for ci, f := range carriers {
		for _, tr := range transits {
			pulses[ci] = append(pulses[ci], arr.PulsesForTransit(tr, f, active, nil, 1)...)
		}
	}
	cfg := lockin.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rng := drbg.NewFromSeed(7)
		b.StartTimer()
		acq, err := lockin.RenderWorkers(carriers, pulses, durationS, cfg, rng, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(acq.Traces) != len(carriers) {
			b.Fatalf("rendered %d traces, want %d", len(acq.Traces), len(carriers))
		}
	}
}

// benchClassifyDiagnose isolates the back of the stack: nearest-centroid
// classification of a fixed feature block followed by a panel diagnosis of
// the resulting count.
func benchClassifyDiagnose(b *testing.B) {
	model, err := classify.ReferenceModel(lockin.DefaultCarriersHz())
	if err != nil {
		b.Fatal(err)
	}
	types := []microfluidic.Type{
		microfluidic.TypeBloodCell, microfluidic.TypeBead358, microfluidic.TypeBead780,
	}
	const peaks = 2000
	features := make([]classify.Features, peaks)
	for i := range features {
		props := microfluidic.PropertiesOf(types[i%len(types)])
		f := make(classify.Features, len(model.CarriersHz))
		for ci, freq := range model.CarriersHz {
			f[ci] = props.AmplitudeAt(freq)
		}
		features[i] = f
	}
	panel := diagnosis.CD4Panel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells := 0
		for _, f := range features {
			res, err := model.Classify(f)
			if err != nil {
				b.Fatal(err)
			}
			if res.Type == microfluidic.TypeBloodCell {
				cells++
			}
		}
		conc, err := diagnosis.ConcentrationFromCount(cells, 10)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := panel.Diagnose(conc); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCloudBatchSubmit measures one POST /api/v1/analyses:batch round trip
// carrying batchSubmitItems short captures through an in-process service —
// HTTP framing, per-item dedup claims, analysis, and storage. Per-iteration
// idempotency keys keep every item a genuinely new capture instead of a
// dedup hit.
func benchCloudBatchSubmit(b *testing.B) {
	const batchSubmitItems = 8
	svc, err := cloud.NewService(cloud.ServiceConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := &cloud.Client{BaseURL: ts.URL}

	s := sensor.NewDefault()
	s.Loss = microfluidic.LossModel{Disabled: true}
	sample := microfluidic.NewSample(10, map[microfluidic.Type]float64{
		microfluidic.TypeBloodCell: 300,
	})
	res, err := s.Acquire(sensor.AcquireConfig{Sample: sample, DurationS: 10}, drbg.NewFromSeed(2016))
	if err != nil {
		b.Fatal(err)
	}
	payload, err := csvio.CompressAcquisition(res.Acquisition)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	items := make([]cloud.BatchSubmission, batchSubmitItems)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range items {
			items[j] = cloud.BatchSubmission{
				Payload:        payload,
				IdempotencyKey: fmt.Sprintf("bench-batch-%d-%d", i, j),
			}
		}
		resp, err := client.SubmitBatch(ctx, items)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Succeeded != batchSubmitItems {
			b.Fatalf("succeeded %d/%d: %+v", resp.Succeeded, batchSubmitItems, resp.Results)
		}
	}
}
