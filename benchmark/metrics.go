package main

import (
	"strings"
	"time"
)

// endToEnd is the gated set: the program's CPU per answered op over the
// timed phase, its peak RSS and its set-up CPU, both CPU figures scaled
// to the reference host speed.
func (b *bench) endToEnd(p *phase) map[string]metric {
	return map[string]metric{
		"cpu_ms_per_op": {b.rawCPUPerOp(p) * scale(b.phaseCal), "ms"},
		"peak_rss_mb":   {p.rss, "MB"},
		"setup_s":       {median(b.setups) * scale(b.setupCal), "s"},
	}
}

// rawCPUPerOp is the program's measured CPU per answered op, in ms.
func (b *bench) rawCPUPerOp(p *phase) float64 {
	if b.answered == 0 {
		return 0
	}
	return float64(p.cpu.Nanoseconds()) / 1e6 / float64(b.answered)
}

// layerInputs carries what a runner measured besides the phase and the
// spans.
type layerInputs struct {
	mismatches  int
	planKB      float64
	firstItemMS float64
	openMS      float64
	overhead    float64
}

// spanMetrics maps a span name to its per-layer metric: the median over
// the ops that ran the layer of the layer's self time per op.
var spanMetrics = []struct {
	span, metric string
	unit         time.Duration
}{
	{"wire.decode_request", "wire.decode_request_us", time.Microsecond},
	{"wire.request_key", "wire.request_key_us", time.Microsecond},
	{"wire.encode_plan", "wire.encode_plan_us", time.Microsecond},
	{"wire.batch_decode", "wire.batch_decode_us", time.Microsecond},
	{"wire.stream_line", "wire.stream_line_us", time.Microsecond},
	{"wire.batch_encode", "wire.batch_encode_us", time.Microsecond},
	{"engine.batch", "engine.batch_ms", time.Millisecond},
	{"core.search", "core.search_us", time.Microsecond},
	{"core.build", "core.build_us", time.Microsecond},
	{"core.repair", "core.repair_us", time.Microsecond},
	{"maxflow.verify", "maxflow.verify_us", time.Microsecond},
	{"planstore.rendered", "planstore.rendered_us", time.Microsecond},
	{"planstore.neighbor", "planstore.neighbor_us", time.Microsecond},
	{"planstore.persist", "planstore.persist_us", time.Microsecond},
}

// layerMetrics is the per-layer set of a traced run. Layers a workload
// does not load report 0.
func (b *bench) layerMetrics(p *phase, in layerInputs) map[string]metric {
	m := make(map[string]metric)
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	ops := float64(max(b.attempted, 1))
	perOp := func(name string) float64 { return p.delta[name] / ops }

	m["client.latency_p50_ms"] = metric{ms(percentile(b.lat, 0.50)), "ms"}
	m["client.latency_p99_ms"] = metric{ms(percentile(b.lat, 0.99)), "ms"}
	m["client.latency_samples"] = metric{float64(len(b.lat)), "count"}
	m["client.job_first_item_ms"] = metric{in.firstItemMS, "ms"}

	spans := b.rec.Spans()
	var unattributed []float64
	for _, d := range Unattributed(spans, "client.op", "bench.replay") {
		unattributed = append(unattributed, float64(d.Nanoseconds())/1e3)
	}
	if b.workload == "large" {
		unattributed = nil // no service: the op is the engine call itself
	}
	m["service.unattributed_us"] = metric{median(unattributed), "us"}
	for _, tier := range []string{"hit", "warm", "miss"} {
		m["service."+tier+"_share"] = metric{float64(b.labels[tier]) / ops, "share"}
	}
	var c422, other, transport int
	for code, n := range b.codes {
		switch {
		case code == "transport":
			transport += n
		case code == "422" || strings.HasSuffix(code, "infeasible"):
			c422 += n
		default:
			other += n
		}
	}
	m["service.failed_ops"] = metric{float64(b.failed), "count"}
	m["service.failed_422"] = metric{float64(c422), "count"}
	m["service.failed_other"] = metric{float64(other), "count"}
	m["service.failed_transport"] = metric{float64(transport), "count"}

	self := LayerSelf(spans)
	for _, sm := range spanMetrics {
		var v []float64
		for _, layers := range self {
			if d, ok := layers[sm.span]; ok {
				v = append(v, float64(d)/float64(sm.unit))
			}
		}
		unit := "us"
		if sm.unit == time.Millisecond {
			unit = "ms"
		}
		m[sm.metric] = metric{median(v), unit}
	}
	m["wire.plan_kb"] = metric{in.planKB, "KB"}

	m["engine.cache_hits_per_op"] = metric{perOp("bmpcast_cache_hits_total"), "count"}
	m["engine.cache_misses_per_op"] = metric{perOp("bmpcast_cache_misses_total"), "count"}
	m["engine.cache_evictions_per_op"] = metric{perOp("bmpcast_cache_evictions_total"), "count"}
	m["engine.workspace_grows"] = metric{p.delta["bmpcast_workspace_grows_total"], "count"}

	m["core.greedy_tests_per_op"] = metric{float64(b.rec.Count("greedy_tests")) / ops, "count"}
	m["core.word_evals_per_op"] = metric{float64(b.rec.Count("word_evals")) / ops, "count"}
	m["maxflow.flow_evals_per_op"] = metric{float64(b.rec.Count("flow_evals")) / ops, "count"}

	m["planstore.open_ms"] = metric{in.openMS, "ms"}
	m["planstore.log_mb"] = metric{p.m0["bmpcast_store_bytes"] / (1 << 20), "MB"}
	disk, warm, fallbacks := p.delta["bmpcast_store_disk_hits"], p.delta["bmpcast_store_warm_hits"], p.delta["bmpcast_store_fallbacks"]
	m["planstore.disk_hits_per_op"] = metric{disk / ops, "count"}
	m["planstore.warm_hits_per_op"] = metric{warm / ops, "count"}
	m["planstore.fallbacks_per_op"] = metric{fallbacks / ops, "count"}
	held := 0.0
	if warm+fallbacks > 0 {
		held = warm / (warm + fallbacks)
	}
	m["planstore.warm_held_ratio"] = metric{held, "ratio"}

	m["bench.steal_pct"] = metric{p.steal, "%"}
	m["bench.calibration_us"] = metric{float64(trimmedMean(b.phaseCal).Nanoseconds()) / 1e3, "us"}
	m["bench.cpu_raw_ms_per_op"] = metric{b.rawCPUPerOp(p), "ms"}
	m["bench.trace_overhead_pct"] = metric{in.overhead, "%"}
	m["bench.checked_ops"] = metric{float64(b.checked), "count"}
	m["bench.replay_mismatch_ops"] = metric{float64(in.mismatches), "count"}
	return m
}
