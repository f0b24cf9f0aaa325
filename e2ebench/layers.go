package main

import (
	"fmt"
	"io"
	"strings"
)

// layerMetric is one per-layer metric of the traced run, with the claim it
// supports: the end-to-end metric it should move, on which workload, and
// the workloads that bypass the layer (where a change to it should move
// nothing). Later performance claims are stated against this table.
type layerMetric struct {
	name, unit, better    string
	moves, on, bypassedBy string
}

var layerMetrics = []layerMetric{
	{"cipher.generate.p50_us", "us", "lower", "latency_p50_ms (~0.1% share)", "diagnose", "batch, ingest"},
	{"cipher.generate.allocs_per_call", "count", "lower", "latency_p50_ms (~0.1% share)", "diagnose", "batch, ingest"},
	{"sensor.acquire.p50_us", "us", "lower", "latency_p50_ms, latency_p90_ms, throughput_per_s", "diagnose", "batch, ingest (only their setup_s)"},
	{"sensor.acquire.self_us", "us", "lower", "latency_p50_ms, latency_p90_ms, throughput_per_s", "diagnose", "batch, ingest (only their setup_s)"},
	{"microfluidic.transits.p50_us", "us", "lower", "latency_p50_ms, throughput_per_s", "diagnose", "batch, ingest (only their setup_s)"},
	{"microfluidic.transits.allocs_per_call", "count", "lower", "latency_p50_ms, throughput_per_s", "diagnose", "batch, ingest (only their setup_s)"},
	{"electrode.pulses.p50_us", "us", "lower", "latency_p50_ms, throughput_per_s", "diagnose", "batch, ingest (only their setup_s)"},
	{"electrode.pulses.allocs_per_call", "count", "lower", "latency_p50_ms, throughput_per_s", "diagnose", "batch, ingest (only their setup_s)"},
	{"lockin.render.p50_us", "us", "lower", "latency_p50_ms, latency_p90_ms, throughput_per_s (noise RNG)", "diagnose", "batch, ingest (only their setup_s)"},
	{"lockin.render.allocs_per_call", "count", "lower", "latency_p50_ms, throughput_per_s", "diagnose", "batch, ingest (only their setup_s)"},
	{"lockin.render.bytes_per_call", "B", "lower", "latency_p50_ms, peak_rss_mb", "diagnose", "batch, ingest (only their setup_s)"},
	{"csvio.encode.p50_us", "us", "lower", "latency_p50_ms", "diagnose", "batch, ingest (only their setup_s)"},
	{"csvio.encode.bytes_per_call", "B", "lower", "latency_p50_ms", "diagnose", "batch, ingest (only their setup_s)"},
	{"csvio.encode.ratio", "ratio", "lower", "zip/CSV bytes; must not worsen", "diagnose", "batch, ingest (only their setup_s)"},
	{"accessory.transfer.p50_us", "us", "lower", "latency_p50_ms", "diagnose", "batch, ingest"},
	{"accessory.transfer.frames_per_capture", "count", "lower", "latency_p50_ms", "diagnose", "batch, ingest"},
	{"phone.submit.p50_us", "us", "lower", "latency_p50_ms", "diagnose", "batch, ingest"},
	{"phone.submit.retries", "count", "lower", "latency_p50_ms", "diagnose", "batch, ingest"},
	{"csvio.decode.p50_us", "us", "lower", "latency_p50_ms, throughput_per_s", "batch; ingest (ungated)", "diagnose (~8% share)"},
	{"csvio.decode.allocs_per_call", "count", "lower", "latency_p50_ms, throughput_per_s", "batch; ingest (ungated)", "diagnose (~8% share)"},
	{"csvio.decode.bytes_per_call", "B", "lower", "latency_p50_ms, throughput_per_s", "batch; ingest (ungated)", "diagnose (~8% share)"},
	{"sigproc.detrend.p50_us", "us", "lower", "latency_p90_ms, peak_rss_mb", "batch; ingest (ungated)", "diagnose"},
	{"sigproc.detrend.bytes_per_call", "B", "lower", "latency_p90_ms, peak_rss_mb", "batch; ingest (ungated)", "diagnose"},
	{"sigproc.peaks.p50_us", "us", "lower", "latency_p90_ms", "batch; ingest (ungated)", "diagnose"},
	{"cloud.analyze.p50_us", "us", "lower", "latency_p90_ms, peak_rss_mb", "batch; ingest (ungated)", "diagnose"},
	{"cloud.analyze.bytes_per_call", "B", "lower", "latency_p90_ms, peak_rss_mb", "batch; ingest (ungated)", "diagnose"},
	{"cloud.analyze.self_us", "us", "lower", "latency_p90_ms", "batch; ingest (ungated)", "diagnose"},
	{"cloud.submit.p50_us", "us", "lower", "latency_p50_ms", "diagnose (relayed upload); ingest (ungated)", "batch (one decision per batch)"},
	{"cloud.submit.p99_us", "us", "lower", "latency_p90_ms", "diagnose (relayed upload); ingest (ungated)", "batch (one decision per batch)"},
	{"cloud.admission.self_us", "us", "lower", "latency_p50_ms", "diagnose (relayed upload); ingest (ungated)", "batch (one decision per batch)"},
	{"cloud.admission.rejected", "count", "lower", "failed (error rate)", "all", "-"},
	{"auth.authenticate.p50_us", "us", "lower", "latency_p90_ms, throughput_per_s", "batch; ingest (ungated)", "diagnose"},
	{"audit.append.p50_us", "us", "lower", "latency_p90_ms, throughput_per_s", "batch; ingest (ungated)", "diagnose"},
	{"cloud.store.put.p50_us", "us", "lower", "latency_p90_ms, throughput_per_s", "batch; ingest (ungated)", "diagnose"},
	{"cloud.store.put.p99_us", "us", "lower", "latency_p90_ms, throughput_per_s", "batch; ingest (ungated)", "diagnose"},
	{"cloud.batch.submit.p50_us", "us", "lower", "throughput_per_s, latency_p50_ms", "batch", "diagnose, ingest"},
	{"cloud.batch.submit.per_item_us", "us", "lower", "throughput_per_s, latency_p50_ms", "batch", "diagnose, ingest"},
	{"cloud.dedup.hit_ratio", "ratio", "higher", "correctness: must be 1", "batch", "diagnose, ingest"},
	{"cloud.report.get.p50_us", "us", "lower", "throughput_per_s", "batch", "diagnose, ingest"},
	{"cipher.decrypt.p50_us", "us", "lower", "latency_p50_ms", "diagnose", "batch, ingest"},
	{"diagnosis.diagnose.p50_us", "us", "lower", "latency_p50_ms", "diagnose", "batch, ingest"},
	{"ingest.send_wait_ms", "ms", "lower", "latency_p90_ms (queueing before the service)", "ingest (ungated)", "-"},
	{"ingest.generator_lag_ms", "ms", "lower", "validity guard", "ingest (ungated)", "-"},
	{"go.alloc_mb_per_capture", "MB", "lower", "latency_p90_ms, peak_rss_mb", "batch; ingest (ungated)", "-"},
	{"go.gc_cycles_per_capture", "count", "lower", "latency_p90_ms, peak_rss_mb", "batch; ingest (ungated)", "-"},
	{"error_rate", "ratio", "lower", "failed / attempted", "all", "-"},
	{"diagnose.remainder_ms", "ms", "lower", "accounting", "diagnose", "-"},
	{"diagnose.trace_overhead_ms", "ms", "lower", "accounting", "diagnose", "-"},
	{"ingest.remainder_ms", "ms", "lower", "accounting", "ingest (ungated)", "-"},
	{"ingest.trace_overhead_ms", "ms", "lower", "accounting", "ingest (ungated)", "-"},
	{"batch.remainder_ms", "ms", "lower", "accounting", "batch", "-"},
	{"batch.trace_overhead_ms", "ms", "lower", "accounting", "batch", "-"},
}

// genericValue derives a metric from the spans named by its prefix; metrics
// with other suffixes are filled in by the workload (0 when it bypasses the
// layer).
func genericValue(l *ledger, name string) float64 {
	cut := strings.LastIndex(name, ".")
	if cut < 0 {
		return 0
	}
	layer, stat := name[:cut], name[cut+1:]
	switch stat {
	case "p50_us":
		return l.durUS(layer, 0.5)
	case "p99_us":
		return l.durUS(layer, 0.99)
	case "self_us":
		if layer == "cloud.admission" {
			// Admission is what a submit does besides the layers
			// shadowed below it: decode, DSP, auth, audit, store.
			return l.selfUS("cloud.submit")
		}
		return l.selfUS(layer)
	case "allocs_per_call":
		return l.allocsPerCall(layer)
	case "bytes_per_call":
		return l.bytesPerCall(layer)
	}
	return 0
}

// printLedger prints the traced phase's layer ledger: each layer's mean self
// time per operation and its share of the untraced latency_p50_ms, the
// unexplained remainder, and the tracing overhead. It returns the median
// remainder in ms.
func printLedger(w io.Writer, workload, root string, l *ledger, untraced, traced phase) float64 {
	rows, remainder, ops := l.shares(root)
	base := untraced.latency(0.5)
	tracedP50 := traced.latency(0.5)
	fmt.Fprintf(w, "ledger %s: %d traced operations split into layers; untraced latency_p50 %.3f ms, traced %.3f ms, tracing overhead %.3f ms\n",
		workload, ops, base, tracedP50, tracedP50-base)
	fmt.Fprintf(w, "  %-28s %14s %10s\n", "layer (self time)", "ms/operation", "share")
	total := 0.0
	for _, r := range rows {
		total += r.selfMS
		fmt.Fprintf(w, "  %-28s %14.3f %9.1f%%\n", r.name, r.selfMS, 100*r.selfMS/base)
	}
	rem := mean(remainder)
	total += rem
	fmt.Fprintf(w, "  %-28s %14.3f %9.1f%%\n", "(unexplained remainder)", rem, 100*rem/base)
	fmt.Fprintf(w, "  %-28s %14.3f %9.1f%%\n", "(traced operation mean)", total, 100*total/base)
	return median(remainder)
}

// printLayerMetrics lists every per-layer value with the claim it supports.
func printLayerMetrics(w io.Writer, workload string, vals map[string]float64) {
	fmt.Fprintf(w, "per-layer metrics on %s (value unit, better | should move | on | bypassed by):\n", workload)
	for _, lm := range layerMetrics {
		fmt.Fprintf(w, "  %-38s %14.3f %-5s %-6s | %s | %s | %s\n", lm.name, vals[lm.name], lm.unit, lm.better, lm.moves, lm.on, lm.bypassedBy)
	}
}
