package main

// metricDef names one reported metric. The end-to-end table is mirrored by
// BENCHMARK.json's "end_to_end" list and the per-layer table by its
// "per_layer" list; TestMetricTablesMatchBenchmarkJSON keeps them in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEnd is measured with tracing off, on every workload. Host times are
// process CPU time, which leaves out time the process waited for a core on
// a shared machine (see cpuNow). Where a metric
// has no direct counterpart on paper-grid (which has no serve session),
// README.md gives the analogue it reports there.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_cpu_s", Unit: "ops/cpu_s", Better: "higher", Bound: 0.25},
	{Name: "batch_cpu_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "batch_cpu_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "finalize_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "checkpoint_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "resume_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "checkpoint_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.1},
	{Name: "hit_ratio", Unit: "ratio", Better: "higher", Bound: 0.05},
	{Name: "sim_latency_mean_us", Unit: "us", Better: "lower", Bound: 0.1},
}

// perLayer is measured by the traced run (--trace 1). README.md names the
// layer call behind each one and the end-to-end metric and workload it
// should move.
var perLayer = []metricDef{
	{Name: "serve.train_bundle_s", Unit: "s", Better: "lower"},
	{Name: "serve.refit_step_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.refreshes", Unit: "count", Better: "higher"},
	{Name: "serve.refreshes_failed", Unit: "count", Better: "lower"},
	{Name: "serve.interval_step_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.plain_step_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.metrics_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.alloc_bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "serve.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.next_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "trace.normalize_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "gmm.score_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "gmm.fit_s", Unit: "s", Better: "lower"},
	{Name: "gmm.em_iters", Unit: "count", Better: "lower"},
	{Name: "cache.access_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.admit_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cache.writebacks_per_kop", Unit: "count/kop", Better: "lower"},
	{Name: "device.flat_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "device.dataflow_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "device.queue_depth_mean", Unit: "requests", Better: "lower"},
	{Name: "device.stall_share", Unit: "ratio", Better: "lower"},
	{Name: "device.ssd_busy_ratio", Unit: "ratio", Better: "lower"},
	{Name: "device.gmm_busy_ratio", Unit: "ratio", Better: "lower"},
	{Name: "device.host_share", Unit: "ratio", Better: "higher"},
	{Name: "stats.observe_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "stats.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "stats.summarize_ms", Unit: "ms", Better: "lower"},
	{Name: "stats.state_kb", Unit: "KB", Better: "lower"},
	{Name: "lstm.forward_us", Unit: "us", Better: "lower"},
	{Name: "policy.lstm_access_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "lstm.train_s", Unit: "s", Better: "lower"},
	{Name: "core.train_s", Unit: "s", Better: "lower"},
	{Name: "core.prescore_ms", Unit: "ms", Better: "lower"},
	{Name: "core.run_s.lru", Unit: "s", Better: "lower"},
	{Name: "core.run_s.gmm", Unit: "s", Better: "lower"},
	{Name: "core.miss_reduction_pp", Unit: "pp", Better: "higher"},
	{Name: "core.latency_reduction_pct", Unit: "%", Better: "higher"},
	{Name: "engine.speedup", Unit: "x", Better: "higher"},
	{Name: "bench.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.spans", Unit: "count", Better: "lower"},
}
