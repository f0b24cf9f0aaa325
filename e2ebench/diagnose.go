package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"strings"
	"time"

	"medsen"
	"medsen/internal/accessory"
	"medsen/internal/cipher"
	"medsen/internal/cloud"
	"medsen/internal/csvio"
	"medsen/internal/devicelink"
	"medsen/internal/drbg"
	"medsen/internal/electrode"
	"medsen/internal/lockin"
	"medsen/internal/microfluidic"
	"medsen/internal/phone"
	"medsen/internal/sensor"
)

// diagnoseCaptureS is the blood capture length of one diagnosis.
const diagnoseCaptureS = 30

// diagnoseWorkload is the patient's path, closed loop with one device: each
// capture is a freshly seeded device running RunDiagnostic, its ciphertext
// framed over an in-memory accessory link (net.Pipe) to
// devicelink.PhoneServe, relayed by phone.Relay to the service, and the
// report returned the same way. The 4G uplink is modelled, not slept.
type diagnoseWorkload struct {
	opts options
	st   *stack
	rng  *rand.Rand
	next int
	runs []diagRun
}

// diagRun is one completed diagnosis and what checking and shadowing it
// needs.
type diagRun struct {
	seed uint64
	conc float64
	res  medsen.DiagnosticResult
	// Traced phase only: the uploaded payload, the returned report, the
	// upload's frame count, the capture key, and the spans shadows attach
	// to.
	report              cloud.Report
	payload             []byte
	frames              int
	trace               string
	acquireID, finishID int
}

func (w *diagnoseWorkload) rootSpan() string { return "diagnose.capture" }

func (w *diagnoseWorkload) setUp(ctx context.Context) error {
	w.rng = rand.New(rand.NewPCG(w.opts.seed, 0xd1a6))
	var err error
	if w.st, err = startStack(w.opts.workDir, 1, 1); err != nil {
		return err
	}
	// Warm-up: two captures through the whole chain, not measured.
	for i := 0; i < 2; i++ {
		if _, _, err := w.capture(ctx, nil, -1-i); err != nil {
			return fmt.Errorf("warm-up capture: %w", err)
		}
	}
	return nil
}

func (w *diagnoseWorkload) tearDown() {
	if w.st != nil {
		w.st.close()
	}
}

func (w *diagnoseWorkload) measure(ctx context.Context, d time.Duration, tr *tracer) (phase, error) {
	p := phase{rejected: make(map[string]int)}
	start := time.Now()
	for time.Since(start) < d {
		run, lat, err := w.capture(ctx, tr, w.next)
		w.next++
		p.attempted++
		if err != nil {
			p.failed++
			countRejection(p.rejected, err)
			continue
		}
		p.completed++
		p.latMS = append(p.latMS, ms(lat))
		w.runs = append(w.runs, run)
	}
	p.elapsed = time.Since(start)
	return p, nil
}

// capture runs diagnosis i (negative i: warm-up) and returns its latency,
// the RunDiagnostic call.
func (w *diagnoseWorkload) capture(ctx context.Context, tr *tracer, i int) (diagRun, time.Duration, error) {
	run := diagRun{seed: deriveSeed(w.opts.seed, "diagnose", i), conc: concentration(i, w.rng)}
	// The controller's status notes mark its steps: key generation,
	// acquisition, analysis, decryption and diagnosis.
	var marks []time.Time
	dev, err := medsen.NewDevice(medsen.WithSeed(run.seed), medsen.WithNotify(func(string) {
		marks = append(marks, time.Now())
	}))
	if err != nil {
		return run, 0, err
	}
	rootID := tr.reserve()
	an := &linkedAnalyzer{st: w.st, tr: tr, parent: rootID, run: &run}
	start := time.Now()
	res, err := dev.RunDiagnostic(ctx, medsen.RunConfig{
		Sample:    medsen.NewBloodSample(10, run.conc),
		DurationS: diagnoseCaptureS,
	}, an)
	end := time.Now()
	if err != nil {
		return run, 0, err
	}
	run.res = res
	if tr != nil {
		if len(marks) != 5 {
			return run, 0, fmt.Errorf("controller sent %d status notes, want 5", len(marks))
		}
		tr.put(rootID, 0, "diagnose.capture", run.trace, start, end)
		tr.record(rootID, "cipher.generate", run.trace, marks[0], marks[1])
		run.acquireID = tr.record(rootID, "sensor.acquire", run.trace, marks[1], marks[2])
		run.finishID = tr.record(rootID, "controller.finish", run.trace, marks[3], marks[4])
	}
	return run, end.Sub(start), nil
}

// linkedAnalyzer is the device half of the accessory link, written against
// accessory.Conn the way devicelink.DeviceSend is, so each step is a call
// the benchmark can time: encode, frame the upload, wait for the phone's
// relay, receive the report.
type linkedAnalyzer struct {
	st     *stack
	tr     *tracer
	parent int
	run    *diagRun
}

func (a *linkedAnalyzer) Analyze(ctx context.Context, acq lockin.Acquisition) (cloud.Report, error) {
	id := a.tr.reserve()
	start := time.Now()
	report, err := a.transfer(ctx, acq, id)
	a.tr.put(id, a.parent, "device.analyze", a.run.trace, start, time.Now())
	return report, err
}

func (a *linkedAnalyzer) transfer(ctx context.Context, acq lockin.Acquisition, parent int) (cloud.Report, error) {
	tr, run := a.tr, a.run
	var payload []byte
	encode := func() error {
		var err error
		payload, err = csvio.CompressAcquisition(acq)
		return err
	}
	if tr == nil {
		if err := encode(); err != nil {
			return cloud.Report{}, err
		}
	} else {
		start, end, allocs, err := measureAllocs(encode)
		if err != nil {
			return cloud.Report{}, err
		}
		run.trace = cloud.CaptureKey(payload)
		tr.record(parent, "csvio.encode", run.trace, start, end)
		tr.addAllocs("csvio.encode", allocs)
		// Kept for the shadow pass only: retaining every payload would
		// grow the process with the run's length.
		run.payload = payload
	}

	submitID := tr.reserve()
	submitted := make(chan time.Time, 1)
	relay := &phone.Relay{
		Client: a.st.client(0),
		Uplink: phone.Default4G(),
		Progress: func(s string) {
			if strings.HasPrefix(s, "analysis ") {
				submitted <- time.Now()
			}
		},
	}
	phoneCtx := withSpan(ctx, spanRef{tr: tr, trace: run.trace, parent: submitID, name: "cloud.submit"})
	devEnd, phoneEnd := net.Pipe()
	phoneErr := make(chan error, 1)
	go func() {
		_, err := devicelink.PhoneServe(phoneCtx, phoneEnd, relay)
		phoneEnd.Close()
		phoneErr <- err
	}()
	report, err := a.exchange(devEnd, payload, parent, submitID, submitted)
	devEnd.Close()
	if perr := <-phoneErr; perr != nil {
		// The phone's error names the refusal (an APIError code).
		return cloud.Report{}, perr
	}
	if err != nil {
		return cloud.Report{}, err
	}
	if tr != nil {
		run.report = report
	}
	return report, nil
}

// exchange runs the device side of the link: handshake, progress notes, the
// framed upload, and the report coming back.
func (a *linkedAnalyzer) exchange(rw net.Conn, payload []byte, parent, submitID int, submitted <-chan time.Time) (cloud.Report, error) {
	tr, run := a.tr, a.run
	start := time.Now()
	conn, err := accessory.Handshake(rw, accessory.DefaultIdentity())
	if err != nil {
		return cloud.Report{}, fmt.Errorf("handshake: %w", err)
	}
	// Progress frames are best-effort UI updates, as in DeviceSend.
	_ = conn.SendProgress("compressing measurements")
	_ = conn.SendProgress(fmt.Sprintf("sending %d bytes to phone", len(payload)))
	if run.frames, err = conn.SendData(payload); err != nil {
		return cloud.Report{}, fmt.Errorf("sending measurements: %w", err)
	}
	sent := time.Now()
	tr.record(parent, "accessory.transfer", run.trace, start, sent)
	reportJSON, err := conn.ReceiveData(nil)
	if err != nil {
		return cloud.Report{}, fmt.Errorf("receiving report: %w", err)
	}
	got := time.Now()
	relayed := <-submitted
	tr.put(submitID, parent, "phone.submit", run.trace, sent, relayed)
	tr.record(parent, "accessory.transfer", run.trace, relayed, got)
	var report cloud.Report
	if err := json.Unmarshal(reportJSON, &report); err != nil {
		return cloud.Report{}, fmt.Errorf("decoding report: %w", err)
	}
	return report, nil
}

// check re-runs every measured diagnosis on a fresh device with the same
// seed and the in-process LocalAnalyzer: the relayed result must agree.
func (w *diagnoseWorkload) check(ctx context.Context) error {
	if len(w.runs) == 0 {
		return errors.New("no diagnosis completed")
	}
	for _, run := range w.runs {
		dev, err := medsen.NewDevice(medsen.WithSeed(run.seed))
		if err != nil {
			return err
		}
		local, err := dev.RunDiagnostic(ctx, medsen.RunConfig{
			Sample:    medsen.NewBloodSample(10, run.conc),
			DurationS: diagnoseCaptureS,
		}, medsen.NewLocalAnalyzer())
		if err != nil {
			return fmt.Errorf("local reference for seed %d: %w", run.seed, err)
		}
		if local.CellCount != run.res.CellCount || local.Diagnosis.Label != run.res.Diagnosis.Label ||
			local.CiphertextPeaks != run.res.CiphertextPeaks {
			return fmt.Errorf("seed %d: relayed %d cells (%q, %d peaks), local %d cells (%q, %d peaks)",
				run.seed, run.res.CellCount, run.res.Diagnosis.Label, run.res.CiphertextPeaks,
				local.CellCount, local.Diagnosis.Label, local.CiphertextPeaks)
		}
	}
	return nil
}

// shadow splits each traced diagnosis further: the sensor's sub-layers
// (transits, pulses, render) replayed from the device's seeded DRBG, the
// service's layers on the uploaded payload, and decryption and diagnosis on
// the returned report.
func (w *diagnoseWorkload) shadow(tr *tracer) error {
	srv, err := newServerShadow(w.opts.workDir, w.st.keystore)
	if err != nil {
		return err
	}
	defer srv.close()
	for _, run := range w.runs {
		if run.trace == "" {
			continue
		}
		if err := w.shadowRun(tr, srv, run); err != nil {
			return err
		}
	}
	return nil
}

func (w *diagnoseWorkload) shadowRun(tr *tracer, srv *serverShadow, run diagRun) error {
	dev, err := medsen.NewDevice(medsen.WithSeed(run.seed))
	if err != nil {
		return err
	}
	s := dev.Sensor
	// The device draws its key schedule first and the acquisition next, so
	// a DRBG with the same seed replays both.
	rng := drbg.NewFromSeed(run.seed)
	var sched *cipher.Schedule
	_, _, allocs, err := measureAllocs(func() error {
		var err error
		sched, err = cipher.Generate(dev.Controller.Params, diagnoseCaptureS, rng)
		return err
	})
	if err != nil {
		return err
	}
	tr.addAllocs("cipher.generate", allocs)

	var transits []microfluidic.Transit
	if _, err := tr.shadow(run.acquireID, "microfluidic.transits", run.trace, func() error {
		var err error
		transits, err = microfluidic.GenerateTransits(microfluidic.GenerateConfig{
			Channel: s.Channel, Sample: medsen.NewBloodSample(10, run.conc),
			DurationS: diagnoseCaptureS, Loss: s.Loss,
		}, rng)
		return err
	}); err != nil {
		return err
	}
	var pulses [][]electrode.Pulse
	if _, err := tr.shadow(run.acquireID, "electrode.pulses", run.trace, func() error {
		pulses = pulsesFor(s, sched, transits)
		return nil
	}); err != nil {
		return err
	}
	if _, err := tr.shadow(run.acquireID, "lockin.render", run.trace, func() error {
		_, err := lockin.RenderWorkers(s.CarriersHz, pulses, diagnoseCaptureS, s.Lockin, rng, 0)
		return err
	}); err != nil {
		return err
	}

	submitID := tr.find("cloud.submit", run.trace)
	p, err := srv.authenticate(tr, submitID, run.trace, w.st.secrets[0])
	if err != nil {
		return err
	}
	if err := srv.analysis(tr, submitID, run.trace, run.payload, p, run.report); err != nil {
		return err
	}

	var dec cipher.Decrypted
	if _, err := tr.shadow(run.finishID, "cipher.decrypt", run.trace, func() error {
		var err error
		dec, err = sched.Decrypt(run.report.SigprocPeaks(), s.Array)
		return err
	}); err != nil {
		return err
	}
	if dec.Count != run.res.CellCount+run.res.BeadCount {
		return fmt.Errorf("replayed decryption of seed %d counts %d, the device %d", run.seed, dec.Count, run.res.CellCount+run.res.BeadCount)
	}
	_, err = tr.shadow(run.finishID, "diagnosis.diagnose", run.trace, func() error {
		r, err := dev.Controller.Panel.Diagnose(run.res.Diagnosis.ConcentrationPerUl)
		if err == nil && r.Label != run.res.Diagnosis.Label {
			err = fmt.Errorf("replayed diagnosis %q, the device %q", r.Label, run.res.Diagnosis.Label)
		}
		return err
	})
	return err
}

// pulsesFor expands every transit into per-carrier voltage drops through the
// electrode layer's public function, keyed by the epoch in force at entry.
func pulsesFor(s *sensor.Sensor, sched *cipher.Schedule, transits []microfluidic.Transit) [][]electrode.Pulse {
	out := make([][]electrode.Pulse, len(s.CarriersHz))
	for ci, f := range s.CarriersHz {
		for _, t := range transits {
			key := sched.KeyAt(t.EntryS)
			out[ci] = append(out[ci], s.Array.PulsesForTransit(t, f, key.Active, sched.GainsAt(t.EntryS), sched.SpeedAt(t.EntryS))...)
		}
	}
	return out
}

func (w *diagnoseWorkload) layerValues(l *ledger, vals map[string]float64) {
	var frames, ratios []float64
	for _, run := range w.runs {
		if run.trace == "" {
			continue
		}
		frames = append(frames, float64(run.frames))
		if acq, err := csvio.DecompressAcquisition(run.payload); err == nil {
			if n, err := csvio.CSVSize(acq); err == nil && n > 0 {
				ratios = append(ratios, float64(len(run.payload))/float64(n))
			}
		}
	}
	vals["accessory.transfer.frames_per_capture"] = median(frames)
	vals["csvio.encode.ratio"] = median(ratios)
	vals["phone.submit.retries"] = l.retries("cloud.submit")
}
