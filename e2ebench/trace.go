package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer, recorded from the benchmark's side of a
// public function boundary. A shadow span re-runs a layer the benchmark
// cannot see from outside (it happens inside Acquire or inside the HTTP
// round trip) on the same input, serially and after its parent ended.
type span struct {
	id, parent int
	name       string
	trace      string // the capture key all spans of one operation share
	start, end time.Time
	shadow     bool
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// allocSample is the heap allocation count and volume of one serial call.
type allocSample struct{ allocs, bytes float64 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced phases run the very same code.
type tracer struct {
	mu     sync.Mutex
	nextID int
	spans  []span
	allocs map[string][]allocSample
}

func newTracer() *tracer {
	return &tracer{allocs: make(map[string][]allocSample)}
}

// reserve allocates a span id ahead of the span's end, so children that
// finish first can name their parent.
func (t *tracer) reserve() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// put records a finished span under a reserved id.
func (t *tracer) put(id, parent int, name, trace string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, trace: trace, start: start, end: end})
}

// record reserves an id and records a finished span in one step.
func (t *tracer) record(parent int, name, trace string, start, end time.Time) int {
	id := t.reserve()
	t.put(id, parent, name, trace, start, end)
	return id
}

// find returns the id of the first span with the given name and trace, 0
// when there is none.
func (t *tracer) find(name, trace string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.name == name && s.trace == trace {
			return s.id
		}
	}
	return 0
}

// measureAllocs runs fn with the process's heap counters read around it.
// Callers make sure nothing else allocates meanwhile.
func measureAllocs(fn func() error) (time.Time, time.Time, allocSample, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := fn()
	end := time.Now()
	runtime.ReadMemStats(&after)
	return start, end, allocSample{
		allocs: float64(after.Mallocs - before.Mallocs),
		bytes:  float64(after.TotalAlloc - before.TotalAlloc),
	}, err
}

func (t *tracer) addAllocs(name string, a allocSample) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.allocs[name] = append(t.allocs[name], a)
}

// shadow runs fn as a shadow span of parent and keeps its allocations.
func (t *tracer) shadow(parent int, name, trace string, fn func() error) (int, error) {
	start, end, a, err := measureAllocs(fn)
	if err != nil {
		return 0, fmt.Errorf("shadow %s: %w", name, err)
	}
	id := t.reserve()
	t.mu.Lock()
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, trace: trace, start: start, end: end, shadow: true})
	t.mu.Unlock()
	t.addAllocs(name, a)
	return id, nil
}

// spanRef travels in a request context so the HTTP transport can attach its
// round-trip span to the operation that issued the request.
type spanRef struct {
	tr     *tracer
	trace  string
	parent int
	name   string // name of the round-trip span
}

type spanRefKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	if ref.tr == nil {
		return ctx
	}
	return context.WithValue(ctx, spanRefKey{}, ref)
}

// tracedTransport records one span per HTTP round trip — from the request
// leaving the client until its response body is closed — under the span the
// request context names.
type tracedTransport struct{ base http.RoundTripper }

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := req.Context().Value(spanRefKey{}).(spanRef)
	if !ok {
		return t.base.RoundTrip(req)
	}
	id := ref.tr.reserve()
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		ref.tr.put(id, ref.parent, ref.name, ref.trace, start, time.Now())
		return resp, err
	}
	resp.Body = &closeHook{ReadCloser: resp.Body, fn: func() {
		ref.tr.put(id, ref.parent, ref.name, ref.trace, start, time.Now())
	}}
	return resp, nil
}

type closeHook struct {
	io.ReadCloser
	once sync.Once
	fn   func()
}

func (c *closeHook) Close() error {
	err := c.ReadCloser.Close()
	c.once.Do(c.fn)
	return err
}

// ledger is the span analysis of one traced phase.
type ledger struct {
	spans    []span
	self     map[int]time.Duration
	children map[int][]int
	index    map[int]int
	allocs   map[string][]allocSample
}

// ledger computes every span's self time: its duration minus its children's
// durations. A shadow child lies outside its parent's interval, so the
// subtraction splits the parent into the layers it ran inside it.
func (t *tracer) ledger() *ledger {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &ledger{
		spans:    append([]span(nil), t.spans...),
		self:     make(map[int]time.Duration),
		children: make(map[int][]int),
		index:    make(map[int]int),
		allocs:   t.allocs,
	}
	for i, s := range l.spans {
		l.index[s.id] = i
		l.self[s.id] += s.dur()
		if s.parent != 0 {
			l.children[s.parent] = append(l.children[s.parent], s.id)
			l.self[s.parent] -= s.dur()
		}
	}
	return l
}

func (l *ledger) named(name string) []span {
	var out []span
	for _, s := range l.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// durUS is the q-quantile of the named spans' durations in µs.
func (l *ledger) durUS(name string, q float64) float64 {
	var xs []float64
	for _, s := range l.named(name) {
		xs = append(xs, us(s.dur()))
	}
	return quantile(xs, q)
}

// selfUS is the median self time of the named spans in µs.
func (l *ledger) selfUS(name string) float64 {
	var xs []float64
	for _, s := range l.named(name) {
		xs = append(xs, us(l.self[s.id]))
	}
	return median(xs)
}

func (l *ledger) allocsPerCall(name string) float64 {
	var xs []float64
	for _, a := range l.allocs[name] {
		xs = append(xs, a.allocs)
	}
	return median(xs)
}

func (l *ledger) bytesPerCall(name string) float64 {
	var xs []float64
	for _, a := range l.allocs[name] {
		xs = append(xs, a.bytes)
	}
	return median(xs)
}

// retries is the median number of extra round trips per trace among the
// spans named name.
func (l *ledger) retries(name string) float64 {
	perTrace := make(map[string]int)
	for _, s := range l.named(name) {
		perTrace[s.trace]++
	}
	var xs []float64
	for _, n := range perTrace {
		xs = append(xs, float64(n-1))
	}
	return median(xs)
}

// layerShare is one ledger row: a layer's mean self time per operation.
type layerShare struct {
	name   string
	selfMS float64
}

// shares splits the operations rooted at spans named root into layers: the
// mean self time per operation of every span name below the root, and the
// root's own self time — the part no layer span covers — as the remainder
// (one sample per operation). Only operations with shadow spans count when
// some have them, since only those are split down to every layer.
func (l *ledger) shares(root string) (rows []layerShare, remainder []float64, ops int) {
	roots := l.named(root)
	hasShadow := func(id int) bool {
		stack := []int{id}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if l.spans[l.index[n]].shadow {
				return true
			}
			stack = append(stack, l.children[n]...)
		}
		return false
	}
	var kept []span
	for _, r := range roots {
		if hasShadow(r.id) {
			kept = append(kept, r)
		}
	}
	if len(kept) == 0 {
		kept = roots
	}
	totals := make(map[string]time.Duration)
	for _, r := range kept {
		remainder = append(remainder, ms(l.self[r.id]))
		stack := append([]int(nil), l.children[r.id]...)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			s := l.spans[l.index[n]]
			totals[s.name] += l.self[n]
			stack = append(stack, l.children[n]...)
		}
	}
	for name, d := range totals {
		rows = append(rows, layerShare{name: name, selfMS: ms(d) / float64(len(kept))})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].selfMS > rows[j].selfMS })
	return rows, remainder, len(kept)
}
