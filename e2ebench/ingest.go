package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"medsen/internal/cloud"
)

const (
	// ingestRate is the offered load in submits per second, under a
	// quarter of the sync-submit knee (above 70/s on 2 vCPUs), so the
	// service keeps up even while the host takes most of the second vCPU.
	ingestRate     = 20.0
	ingestConns    = 2
	ingestDevices  = 16
	ingestPool     = 64
	ingestCaptureS = 10
	// ingestWindows is the most sub-windows latency percentiles are taken
	// over.
	ingestWindows = 5
	// ingestShadows caps the traced submits split into server layers.
	ingestShadows = 48
	// ingestMaxLag is the generator lateness (p99) past which a run is
	// invalid: the schedule was not offered as planned. The generator
	// shares two vCPUs with the service, so waiting up to one scheduler
	// time slice (10-20 ms) for a CPU is normal; two inter-arrival gaps
	// is not.
	ingestMaxLag = 100 * time.Millisecond
	// ingestMaxDrain is how long after the schedule ends completions may
	// trail it; longer means a backlog was building. A transient stall
	// near the end clears within about a second at this rate.
	ingestMaxDrain = 2 * time.Second
)

// ingestWorkload is the cloud operator's path, open loop: submits arrive as
// a Poisson process at ingestRate (arrival times are the order statistics of
// uniform draws over the window, i.e. a Poisson process conditioned on its
// count) from ingestDevices devices over at most ingestConns connections.
// Each is a sync submit of a pooled 10 s capture under its own idempotency
// key, so each is a fresh analysis.
type ingestWorkload struct {
	opts     options
	st       *stack
	pool     []pooled
	clients  []*cloud.Client
	rng      *rand.Rand
	next     int
	subs     []ingestSub
	baseline cloud.Metrics
	warmIDs  map[string]bool
	// Per phase: send waits and generator lateness in ms.
	sendWaitMS, lagMS [][]float64
}

type ingestSub struct {
	key    string
	pool   int
	device int
	id     string
	peaks  int
	traced bool
}

func (w *ingestWorkload) rootSpan() string { return "ingest.request" }

func (w *ingestWorkload) setUp(ctx context.Context) error {
	w.rng = rand.New(rand.NewPCG(w.opts.seed, 0x1a6e57))
	var err error
	if w.pool, err = synthesizePool(w.opts.seed, ingestPool, ingestCaptureS); err != nil {
		return err
	}
	if w.st, err = startStack(w.opts.workDir, ingestDevices, ingestConns); err != nil {
		return err
	}
	for d := 0; d < ingestDevices; d++ {
		w.clients = append(w.clients, w.st.client(d))
	}
	// Warm-up: a few submits on both connections, not measured.
	w.warmIDs = make(map[string]bool)
	for i := 0; i < 2*ingestConns; i++ {
		key := fmt.Sprintf("ingest-warmup:%d:%d", w.opts.seed, i)
		sub, err := w.clients[i%ingestDevices].SubmitCompressedKeyed(ctx, w.pool[i].payload, key)
		if err != nil {
			return fmt.Errorf("warm-up submit: %w", err)
		}
		w.warmIDs[sub.ID] = true
	}
	w.baseline, err = w.st.metrics(ctx)
	return err
}

func (w *ingestWorkload) tearDown() {
	if w.st != nil {
		w.st.close()
	}
}

func (w *ingestWorkload) measure(ctx context.Context, d time.Duration, tr *tracer) (phase, error) {
	n := int(ingestRate*d.Seconds() + 0.5)
	if n < 1 {
		return phase{}, errors.New("ingest window too short for one arrival")
	}
	offsets := make([]time.Duration, n)
	for i := range offsets {
		offsets[i] = time.Duration(w.rng.Float64() * float64(d))
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	subs := make([]ingestSub, n)
	for i := range subs {
		subs[i] = ingestSub{
			key:    fmt.Sprintf("ingest:%d:%d", w.opts.seed, w.next+i),
			pool:   w.rng.IntN(len(w.pool)),
			device: (w.next + i) % ingestDevices,
			traced: tr != nil,
		}
	}
	w.next += n

	type arrival struct {
		i   int
		due time.Time
	}
	// Sized to the number of sends: the generator never blocks.
	arrivals := make(chan arrival, n)
	lag := make([]float64, n)
	start := time.Now().Add(10 * time.Millisecond)
	go func() {
		defer close(arrivals)
		for i, off := range offsets {
			due := start.Add(off)
			time.Sleep(time.Until(due))
			lag[i] = ms(time.Since(due))
			arrivals <- arrival{i, due}
		}
	}()

	lat := make([]float64, n)
	wait := make([]float64, n)
	done := make([]time.Time, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < ingestConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range arrivals {
				sub := &subs[a.i]
				rootID := tr.reserve()
				sent := time.Now()
				reqCtx := withSpan(ctx, spanRef{tr: tr, trace: sub.key, parent: rootID, name: "cloud.submit"})
				resp, err := w.clients[sub.device].SubmitCompressedKeyed(reqCtx, w.pool[sub.pool].payload, sub.key)
				done[a.i] = time.Now()
				tr.put(rootID, 0, "ingest.request", sub.key, a.due, done[a.i])
				tr.record(rootID, "ingest.send_wait", sub.key, a.due, sent)
				wait[a.i] = ms(sent.Sub(a.due))
				lat[a.i] = ms(done[a.i].Sub(a.due))
				errs[a.i] = err
				sub.id, sub.peaks = resp.ID, resp.Report.PeakCount
			}
		}()
	}
	wg.Wait()

	p := phase{attempted: n, rejected: make(map[string]int)}
	// Sub-windows of at least 100 arrivals each, so that every sub-window's
	// p90 has ten samples beyond it.
	k := max(1, min(ingestWindows, n/100))
	p.windows = make([][]float64, k)
	scheduleEnd := start.Add(d)
	// The window lasts from the schedule's start to the last completion.
	last := start
	for i, err := range errs {
		if done[i].After(last) {
			last = done[i]
		}
		if err != nil {
			p.failed++
			countRejection(p.rejected, err)
			continue
		}
		p.completed++
		p.latMS = append(p.latMS, lat[i])
		j := min(k-1, int(offsets[i]*time.Duration(k)/d))
		p.windows[j] = append(p.windows[j], lat[i])
		w.subs = append(w.subs, subs[i])
	}
	p.elapsed = last.Sub(start)
	if l := quantile(lag, 0.99); l > ms(ingestMaxLag) {
		p.invalid = fmt.Sprintf("generator ran late: p99 lag %.2f ms > %v", l, ingestMaxLag)
	}
	if drain := last.Sub(scheduleEnd); drain > ingestMaxDrain {
		p.invalid = fmt.Sprintf("completions trailed the schedule by %v: a backlog was building", drain)
	}
	w.sendWaitMS = append(w.sendWaitMS, wait)
	w.lagMS = append(w.lagMS, lag)
	return p, nil
}

// check verifies that every acked submit created a new analysis whose peak
// count matches the reference for its payload, and that the service stored
// exactly that many analyses.
func (w *ingestWorkload) check(ctx context.Context) error {
	if len(w.subs) == 0 {
		return errors.New("no submit succeeded")
	}
	seen := make(map[string]bool, len(w.subs))
	for _, s := range w.subs {
		if s.id == "" || seen[s.id] || w.warmIDs[s.id] {
			return fmt.Errorf("submit %s got analysis id %q, not a new one", s.key, s.id)
		}
		seen[s.id] = true
		if want := w.pool[s.pool].ref.PeakCount; s.peaks != want {
			return fmt.Errorf("submit %s: %d peaks, reference %d", s.key, s.peaks, want)
		}
	}
	after, err := w.st.metrics(ctx)
	if err != nil {
		return err
	}
	if delta := after.StoredAnalyses - w.baseline.StoredAnalyses; delta != len(w.subs) {
		return fmt.Errorf("service stored %d analyses for %d fresh acks", delta, len(w.subs))
	}
	return nil
}

// shadow splits up to ingestShadows traced submits, spread over the traced
// phase, into the service's layers.
func (w *ingestWorkload) shadow(tr *tracer) error {
	srv, err := newServerShadow(w.opts.workDir, w.st.keystore)
	if err != nil {
		return err
	}
	defer srv.close()
	var traced []ingestSub
	for _, s := range w.subs {
		if s.traced {
			traced = append(traced, s)
		}
	}
	step := max(1, len(traced)/ingestShadows)
	for i := 0; i < len(traced); i += step {
		s := traced[i]
		parent := tr.find("cloud.submit", s.key)
		p, err := srv.authenticate(tr, parent, s.key, w.st.secrets[s.device])
		if err != nil {
			return err
		}
		if err := srv.analysis(tr, parent, s.key, w.pool[s.pool].payload, p, w.pool[s.pool].ref); err != nil {
			return err
		}
	}
	return nil
}

func (w *ingestWorkload) layerValues(l *ledger, vals map[string]float64) {
	// Queueing and lateness come from the untraced phase.
	vals["ingest.send_wait_ms"] = quantile(w.sendWaitMS[0], 0.9)
	vals["ingest.generator_lag_ms"] = quantile(w.lagMS[0], 0.99)
}
