package main

// metricDef is one registered metric. BENCHMARK.json repeats the registry
// and a test keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before it counts as a regression; per-layer metrics have none.
	Bound float64
	// Moves says which end-to-end metric, on which workload, a per-layer
	// metric is expected to move (README, "Predictions").
	Moves string
}

// endToEnd is what a user of the service sees, per workload. The bounds of
// the four timing metrics are set from the run-to-run spread measured on
// the shared two-core reference machine (README, "Steadiness"), not from
// what one would like to resolve: a bound below the spread would reject the
// same code run twice.
var endToEnd = []metricDef{
	{Name: "periods_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "lateness_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "lateness_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_period", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_period", Unit: "count", Better: "lower", Bound: 0.03},
	{Name: "bytes_per_subscriber", Unit: "B", Better: "lower", Bound: 0.03},
	{Name: "ontime_share", Unit: "ratio", Better: "higher", Bound: 0.0005},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is the layer budget: probes, the traced pass, and the harness's
// own noise. Layer names are the module names.
var perLayer = []metricDef{
	{Name: "geom.visit_within_ns", Unit: "ns", Better: "lower", Moves: "periods_per_s, lateness_* on dense_eval"},
	{Name: "geom.visit_within_wide_ns", Unit: "ns", Better: "lower", Moves: "periods_per_s on warm_paths"},
	{Name: "geom.insert_ns", Unit: "ns", Better: "lower", Moves: "setup_s on all"},

	{Name: "core.evaluate_due_ns", Unit: "ns", Better: "lower", Moves: "periods_per_s on dense_eval"},
	{Name: "core.evaluate_due_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_period on dense_eval"},
	{Name: "core.evaluate_due_small_ns", Unit: "ns", Better: "lower", Moves: "periods_per_s on sparse_churn, stream_fanout"},
	{Name: "core.evaluate_due_corridor_ns", Unit: "ns", Better: "lower", Moves: "periods_per_s on warm_paths"},
	{Name: "core.evaluate_due_pyramid_ns", Unit: "ns", Better: "lower", Moves: "periods_per_s on warm_paths"},
	{Name: "core.evaluate_due_window_ns", Unit: "ns", Better: "lower", Moves: "periods_per_s on warm_paths"},
	{Name: "core.pop_due_ns_per_entry", Unit: "ns", Better: "lower", Moves: "periods_per_s, lateness_p99_ms on sparse_churn"},
	{Name: "core.pop_due_idle_ns", Unit: "ns", Better: "lower", Moves: "none on these workloads (no idle ticks)"},
	{Name: "core.flush_rearms_ns_per_entry", Unit: "ns", Better: "lower", Moves: "periods_per_s, lateness_p99_ms on sparse_churn"},
	{Name: "core.register_ns", Unit: "ns", Better: "lower", Moves: "cpu_us_per_period, setup_s on sparse_churn"},
	{Name: "core.register_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_period on sparse_churn"},
	{Name: "core.deregister_ns", Unit: "ns", Better: "lower", Moves: "cpu_us_per_period on sparse_churn"},

	{Name: "prefetch.period_status_ns", Unit: "ns", Better: "lower", Moves: "periods_per_s on warm_paths"},
	{Name: "prefetch.replan_ns", Unit: "ns", Better: "lower", Moves: "periods_per_s on warm_paths (mispredicts only)"},
	{Name: "prefetch.replan_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_period on warm_paths"},
	{Name: "prefetch.warmup_share", Unit: "ratio", Better: "lower", Moves: "ontime_share on warm_paths"},

	{Name: "corridor.stage_through_ns", Unit: "ns", Better: "lower", Moves: "periods_per_s on warm_paths"},
	{Name: "corridor.stage_through_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_period on warm_paths"},
	{Name: "corridor.visit_staged_ns", Unit: "ns", Better: "lower", Moves: "periods_per_s on warm_paths"},
	{Name: "corridor.hit_share", Unit: "ratio", Better: "higher", Moves: "periods_per_s on warm_paths"},

	{Name: "pyramid.ensure_epoch_ns", Unit: "ns", Better: "lower", Moves: "periods_per_s on warm_paths"},
	{Name: "pyramid.ensure_epoch_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_period on warm_paths"},
	{Name: "pyramid.serve_window_ns", Unit: "ns", Better: "lower", Moves: "periods_per_s on warm_paths"},
	{Name: "pyramid.hit_share", Unit: "ratio", Better: "higher", Moves: "periods_per_s on warm_paths"},
	{Name: "pyramid.visit_advantage", Unit: "ratio", Better: "higher", Moves: "periods_per_s on warm_paths"},

	{Name: "session.advance_us_per_period", Unit: "us", Better: "lower", Moves: "periods_per_s on in-process workloads"},
	{Name: "session.receive_us_per_period", Unit: "us", Better: "lower", Moves: "lateness_p99_ms"},
	{Name: "session.advance_idle_ns", Unit: "ns", Better: "lower", Moves: "setup_s on sparse_churn"},
	{Name: "session.period_overhead_ns", Unit: "ns", Better: "lower", Moves: "periods_per_s, cpu_us_per_period on sparse_churn"},
	{Name: "session.period_overhead_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_period on all"},
	{Name: "session.subscribe_us", Unit: "us", Better: "lower", Moves: "setup_s, cpu_us_per_period on sparse_churn"},
	{Name: "session.subscribe_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_period on sparse_churn"},
	{Name: "session.close_us", Unit: "us", Better: "lower", Moves: "cpu_us_per_period on sparse_churn"},
	{Name: "session.stage_pop_share", Unit: "ratio", Better: "lower", Moves: "lateness_* on sparse_churn"},
	{Name: "session.stage_eval_share", Unit: "ratio", Better: "lower", Moves: "lateness_* on dense_eval, warm_paths"},
	{Name: "session.stage_flush_share", Unit: "ratio", Better: "lower", Moves: "lateness_* on sparse_churn"},
	{Name: "session.stage_deliver_share", Unit: "ratio", Better: "lower", Moves: "lateness_* on all"},
	{Name: "session.class_periods.cold", Unit: "count", Better: "higher", Moves: "none: repeats exactly per boundary"},
	{Name: "session.class_periods.planned", Unit: "count", Better: "lower", Moves: "none: repeats exactly per boundary"},
	{Name: "session.class_periods.corridor", Unit: "count", Better: "higher", Moves: "none: repeats exactly per boundary"},
	{Name: "session.class_periods.pyramid", Unit: "count", Better: "higher", Moves: "none: repeats exactly per boundary"},

	{Name: "wire.from_result_ns", Unit: "ns", Better: "lower", Moves: "periods_per_s on stream_fanout only"},
	{Name: "wire.encode_result_ns", Unit: "ns", Better: "lower", Moves: "periods_per_s on stream_fanout only"},
	{Name: "wire.encode_result_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_period on stream_fanout only"},
	{Name: "wire.encode_result_bytes", Unit: "B", Better: "lower", Moves: "periods_per_s on stream_fanout only"},
	{Name: "wire.decode_result_ns", Unit: "ns", Better: "lower", Moves: "periods_per_s on stream_fanout only"},
	{Name: "wire.decode_result_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_period on stream_fanout only"},
	{Name: "wire.decode_subscribe_ns", Unit: "ns", Better: "lower", Moves: "setup_s on stream_fanout only"},
	{Name: "wire.decode_subscribe_allocs", Unit: "count", Better: "lower", Moves: "setup_s on stream_fanout only"},

	{Name: "server.frame_ns", Unit: "ns", Better: "lower", Moves: "periods_per_s, lateness_* on stream_fanout"},
	{Name: "server.frame_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_period on stream_fanout"},
	{Name: "server.flushes_per_frame", Unit: "count", Better: "lower", Moves: "periods_per_s, lateness_* on stream_fanout"},
	{Name: "server.write_bytes_per_frame", Unit: "B", Better: "lower", Moves: "periods_per_s on stream_fanout"},
	{Name: "server.transport_us_per_frame", Unit: "us", Better: "lower", Moves: "periods_per_s, cpu_us_per_period on stream_fanout"},
	{Name: "server.subscribe_ms_p50", Unit: "ms", Better: "lower", Moves: "setup_s on stream_fanout"},
	{Name: "server.subscribe_ms_p99", Unit: "ms", Better: "lower", Moves: "setup_s on stream_fanout"},
	{Name: "server.metrics_scrape_ms", Unit: "ms", Better: "lower", Moves: "none: off the period path"},
	{Name: "server.stats_ns", Unit: "ns", Better: "lower", Moves: "none: off the period path"},

	{Name: "obs.histogram_observe_ns", Unit: "ns", Better: "lower", Moves: "periods_per_s on sparse_churn"},
	{Name: "obs.trace_record_ns", Unit: "ns", Better: "lower", Moves: "periods_per_s on sparse_churn"},
	{Name: "obs.span_publish_ns", Unit: "ns", Better: "lower", Moves: "periods_per_s on sparse_churn"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "none: traced pass only"},
	{Name: "obs.disabled_speedup_pct", Unit: "%", Better: "lower", Moves: "periods_per_s, bytes_per_subscriber on dense_eval, sparse_churn"},

	{Name: "trace.sched_us", Unit: "us", Better: "lower", Moves: "none: waiting between boundaries"},
	{Name: "trace.dispatch_us", Unit: "us", Better: "lower", Moves: "lateness_p50_ms"},
	{Name: "trace.eval_us", Unit: "us", Better: "lower", Moves: "periods_per_s"},
	{Name: "trace.flush_us", Unit: "us", Better: "lower", Moves: "lateness_p50_ms"},
	{Name: "trace.deliver_us", Unit: "us", Better: "lower", Moves: "lateness_p50_ms"},
	{Name: "trace.wire_us", Unit: "us", Better: "lower", Moves: "lateness_* on stream_fanout"},
	{Name: "trace.client_us", Unit: "us", Better: "lower", Moves: "lateness_*"},

	{Name: "driver.fire_gap_us_p99", Unit: "us", Better: "lower", Moves: "none: harness noise"},
	{Name: "driver.gc_cycles", Unit: "count", Better: "lower", Moves: "none: harness noise"},
	{Name: "driver.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "lateness_p99_ms"},
	{Name: "driver.goroutines_end", Unit: "count", Better: "lower", Moves: "none: leak check"},

	{Name: "budget.sum_us_per_period", Unit: "us", Better: "lower", Moves: "cpu_us_per_period"},
	{Name: "budget.e2e_us_per_period", Unit: "us", Better: "lower", Moves: "cpu_us_per_period"},
	{Name: "budget.unexplained_pct", Unit: "%", Better: "lower", Moves: "none: reconciliation"},
}

// metricValues maps a metric name to its measured value.
type metricValues map[string]float64
