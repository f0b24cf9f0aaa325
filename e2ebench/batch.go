package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"time"

	"medsen/internal/cloud"
)

const (
	batchItems    = 16
	batchResent   = 4 // 25% of each batch re-sends an earlier acked capture
	batchPool     = 64
	batchCaptureS = 10
	// batchShadows caps the traced batches split into server layers.
	batchShadows = 4
)

// batchWorkload is one client in a closed loop of
// POST /api/v1/analyses:batch requests of batchItems 10 s captures, a
// quarter of them re-sends of earlier acked captures (same bytes, same
// key). After each batch the client reads every fresh analysis back once.
type batchWorkload struct {
	opts     options
	st       *stack
	client   *cloud.Client
	pool     []pooled
	rng      *rand.Rand
	next     int
	acked    []batchItem // fresh captures acked so far, re-send candidates
	rounds   []batchRound
	baseline cloud.Metrics
}

type batchItem struct {
	key  string
	pool int
	// original is the acked analysis id a re-sent item must resolve to;
	// "" for a fresh item.
	original string
	id       string
	// readBack reports whether the GET of a fresh item returned the
	// reference report; compared on the spot so no report is retained.
	readBack bool
}

type batchRound struct {
	items  []batchItem
	traced bool
}

func (w *batchWorkload) rootSpan() string { return "batch.request" }

func (w *batchWorkload) setUp(ctx context.Context) error {
	w.rng = rand.New(rand.NewPCG(w.opts.seed, 0xba7c4))
	var err error
	if w.pool, err = synthesizePool(w.opts.seed, batchPool, batchCaptureS); err != nil {
		return err
	}
	if w.st, err = startStack(w.opts.workDir, 1, 1); err != nil {
		return err
	}
	w.client = w.st.client(0)
	// Warm-up: two all-fresh batches, not measured; they also seed the
	// re-send candidates.
	for i := 0; i < 2; i++ {
		r, _, err := w.round(ctx, nil, 0)
		if err != nil {
			return fmt.Errorf("warm-up batch: %w", err)
		}
		w.acked = append(w.acked, r.items...)
	}
	w.baseline, err = w.st.metrics(ctx)
	return err
}

func (w *batchWorkload) tearDown() {
	if w.st != nil {
		w.st.close()
	}
}

// round sends one batch of fresh items plus resent re-sends, then GETs every
// fresh analysis. It returns the batch round-trip latency.
func (w *batchWorkload) round(ctx context.Context, tr *tracer, resent int) (batchRound, time.Duration, error) {
	r := batchRound{items: make([]batchItem, 0, batchItems), traced: tr != nil}
	for _, j := range w.rng.Perm(len(w.acked))[:resent] {
		prev := w.acked[j]
		r.items = append(r.items, batchItem{key: prev.key, pool: prev.pool, original: prev.id})
	}
	for len(r.items) < batchItems {
		r.items = append(r.items, batchItem{
			key:  fmt.Sprintf("batch:%d:%d", w.opts.seed, w.next),
			pool: w.rng.IntN(len(w.pool)),
		})
		w.next++
	}
	w.rng.Shuffle(len(r.items), func(i, j int) { r.items[i], r.items[j] = r.items[j], r.items[i] })
	subs := make([]cloud.BatchSubmission, len(r.items))
	for i, it := range r.items {
		subs[i] = cloud.BatchSubmission{Payload: w.pool[it.pool].payload, IdempotencyKey: it.key}
	}
	trace := r.items[0].key
	rootID := tr.reserve()
	start := time.Now()
	resp, err := w.client.SubmitBatch(withSpan(ctx, spanRef{tr: tr, trace: trace, parent: rootID, name: "cloud.batch.submit"}), subs)
	end := time.Now()
	tr.put(rootID, 0, "batch.request", trace, start, end)
	if err != nil {
		return r, 0, err
	}
	if len(resp.Results) != len(r.items) {
		return r, 0, fmt.Errorf("batch answered %d items for %d sent", len(resp.Results), len(r.items))
	}
	var failed error
	for _, res := range resp.Results {
		if res.Index < 0 || res.Index >= len(r.items) {
			return r, 0, fmt.Errorf("batch result index %d out of range", res.Index)
		}
		if !res.OK() {
			failed = &cloud.APIError{Status: res.Status, Code: res.Error.Code, Message: res.Error.Message}
			continue
		}
		r.items[res.Index].id = res.ID
	}
	if failed != nil {
		return r, 0, failed
	}
	for i := range r.items {
		it := &r.items[i]
		if it.original != "" {
			continue
		}
		getID := tr.reserve()
		getStart := time.Now()
		report, err := w.client.GetReport(withSpan(ctx, spanRef{tr: tr, trace: it.key, parent: getID, name: "cloud.report.get"}), it.id)
		tr.put(getID, 0, "batch.get", it.key, getStart, time.Now())
		if err != nil {
			return r, 0, fmt.Errorf("reading back %s: %w", it.id, err)
		}
		it.readBack = reflect.DeepEqual(report, w.pool[it.pool].ref)
	}
	return r, end.Sub(start), nil
}

func (w *batchWorkload) measure(ctx context.Context, d time.Duration, tr *tracer) (phase, error) {
	p := phase{rejected: make(map[string]int)}
	start := time.Now()
	for time.Since(start) < d {
		r, lat, err := w.round(ctx, tr, batchResent)
		p.attempted += batchItems
		if err != nil {
			// A refused batch fails every item it carried.
			p.failed += batchItems
			countRejection(p.rejected, err)
			continue
		}
		p.completed += batchItems
		p.latMS = append(p.latMS, ms(lat))
		w.rounds = append(w.rounds, r)
		for _, it := range r.items {
			if it.original == "" {
				w.acked = append(w.acked, it)
			}
		}
	}
	p.elapsed = time.Since(start)
	return p, nil
}

// resentItems counts the measured re-sends.
func (w *batchWorkload) resentItems() int {
	n := 0
	for _, r := range w.rounds {
		for _, it := range r.items {
			if it.original != "" {
				n++
			}
		}
	}
	return n
}

// check verifies that every re-send resolved to its original analysis,
// that the service counted exactly one dedup hit per re-send, and that every
// fresh analysis read back equals the reference report for its payload.
func (w *batchWorkload) check(ctx context.Context) error {
	if len(w.rounds) == 0 {
		return errors.New("no batch completed")
	}
	seen := make(map[string]bool)
	for _, r := range w.rounds {
		for _, it := range r.items {
			if it.original != "" {
				if it.id != it.original {
					return fmt.Errorf("re-sent %s resolved to %s, not %s", it.key, it.id, it.original)
				}
				continue
			}
			if it.id == "" || seen[it.id] {
				return fmt.Errorf("fresh %s got analysis id %q, not a new one", it.key, it.id)
			}
			seen[it.id] = true
			if !it.readBack {
				return fmt.Errorf("analysis %s read back differs from the reference report", it.id)
			}
		}
	}
	hits, err := w.dedupHits(ctx)
	if err != nil {
		return err
	}
	if resent := w.resentItems(); hits != int64(resent) {
		return fmt.Errorf("service counted %d dedup hits for %d re-sent items", hits, resent)
	}
	return nil
}

func (w *batchWorkload) dedupHits(ctx context.Context) (int64, error) {
	after, err := w.st.metrics(ctx)
	if err != nil {
		return 0, err
	}
	return after.DedupHits - w.baseline.DedupHits, nil
}

// shadow splits up to batchShadows traced batches into the service's
// layers: one authentication per batch, then per item decode, analysis,
// store commit and audit for fresh items and the audit record alone for
// re-sends, which the dedup index answers.
func (w *batchWorkload) shadow(tr *tracer) error {
	srv, err := newServerShadow(w.opts.workDir, w.st.keystore)
	if err != nil {
		return err
	}
	defer srv.close()
	var traced []batchRound
	for _, r := range w.rounds {
		if r.traced {
			traced = append(traced, r)
		}
	}
	step := max(1, len(traced)/batchShadows)
	for i := 0; i < len(traced); i += step {
		r := traced[i]
		trace := r.items[0].key
		parent := tr.find("cloud.batch.submit", trace)
		p, err := srv.authenticate(tr, parent, trace, w.st.secrets[0])
		if err != nil {
			return err
		}
		for _, it := range r.items {
			if it.original != "" {
				err = srv.appendAudit(tr, parent, trace, p, it.id)
			} else {
				err = srv.analysis(tr, parent, trace, w.pool[it.pool].payload, p, w.pool[it.pool].ref)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *batchWorkload) layerValues(l *ledger, vals map[string]float64) {
	vals["cloud.batch.submit.per_item_us"] = vals["cloud.batch.submit.p50_us"] / batchItems
	if hits, err := w.dedupHits(context.Background()); err == nil {
		if resent := w.resentItems(); resent > 0 {
			vals["cloud.dedup.hit_ratio"] = float64(hits) / float64(resent)
		}
	}
}
