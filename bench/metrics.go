package main

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same metrics in the same order (a test holds the two
// together); this table is what the code reads.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the baseline median a change may lose
}

// endToEnd are the numbers an operator or a client of the updated server
// sees. Every workload reports every one of them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "downtime_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "update_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "stall_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rollback_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "serve_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "armed_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer are the numbers of single layers, named after the package
// under internal/ that owns them. They carry no bound: they say where an
// end-to-end move came from. A metric a workload has nothing to say about
// (bytes adopted by a copy-path update) reads 0 there.
var perLayer = []metricDef{
	// From the engine's public report of the measured update.
	{Name: "core.prequiesce_ms", Unit: "ms", Better: "lower"},
	{Name: "core.analysis_ms", Unit: "ms", Better: "lower"},
	{Name: "core.discovery_ms", Unit: "ms", Better: "lower"},
	{Name: "core.transfer_ms", Unit: "ms", Better: "lower"},
	{Name: "core.unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "core.analyses_reused_frac", Unit: "frac", Better: "higher"},
	{Name: "quiesce.converge_ms", Unit: "ms", Better: "lower"},
	{Name: "quiesce.converge_max_ms", Unit: "ms", Better: "lower"},
	{Name: "reinit.restart_ms", Unit: "ms", Better: "lower"},
	{Name: "reinit.fds_collected", Unit: "count", Better: "lower"},
	{Name: "replaylog.replayed", Unit: "count", Better: "higher"},
	{Name: "replaylog.live", Unit: "count", Better: "lower"},
	{Name: "replaylog.conflicted", Unit: "count", Better: "lower"},
	{Name: "trace.objects_discovered", Unit: "count", Better: "lower"},
	{Name: "trace.objects_transferred", Unit: "count", Better: "lower"},
	{Name: "trace.bytes_transferred", Unit: "B", Better: "lower"},
	{Name: "trace.bytes_live", Unit: "B", Better: "lower"},
	{Name: "trace.bytes_shadow", Unit: "B", Better: "higher"},
	{Name: "trace.bytes_adopted", Unit: "B", Better: "higher"},
	{Name: "trace.pages_adopted", Unit: "count", Better: "higher"},
	{Name: "trace.adoption_frac", Unit: "frac", Better: "higher"},
	{Name: "trace.shadow_frac", Unit: "frac", Better: "higher"},
	{Name: "trace.type_cache_hits", Unit: "count", Better: "higher"},
	{Name: "trace.copy_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "checkpoint.shadow_lag_pages", Unit: "count", Better: "lower"},
	{Name: "checkpoint.warm_wait_ms", Unit: "ms", Better: "lower"},
	// From the daemon's status either side of the armed window.
	{Name: "checkpoint.daemon_passes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "checkpoint.daemon_pass_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.duty_measured", Unit: "frac", Better: "lower"},
	{Name: "checkpoint.yields_per_s", Unit: "1/s", Better: "lower"},
	{Name: "checkpoint.armed_p99_us", Unit: "us", Better: "lower"},
	{Name: "checkpoint.armed_p999_us", Unit: "us", Better: "lower"},
	// From the load driver.
	{Name: "kernel.rtt_us", Unit: "us", Better: "lower"},
	{Name: "kernel.connect_us", Unit: "us", Better: "lower"},
	{Name: "workload.offered_rps", Unit: "1/s", Better: "higher"},
	{Name: "workload.requests", Unit: "count", Better: "higher"},
	{Name: "workload.gen_late_p50_us", Unit: "us", Better: "lower"},
	{Name: "workload.gen_late_p99_us", Unit: "us", Better: "lower"},
	// From the traced pass's probe cycle.
	{Name: "trace.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.analyze_mobj_per_s", Unit: "M/s", Better: "higher"},
	{Name: "trace.digest_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.digest_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "mem.rss_mb", Unit: "MB", Better: "lower"},
	{Name: "mem.objects", Unit: "count", Better: "lower"},
	{Name: "program.procs", Unit: "count", Better: "lower"},
	{Name: "mem.clone_ms", Unit: "ms", Better: "lower"},
	{Name: "mem.read_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "mem.read_small_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.write_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "mem.write_small_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.alloc_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.softdirty_pages", Unit: "count", Better: "lower"},
	{Name: "mem.softdirty_scan_us", Unit: "us", Better: "lower"},
	{Name: "mem.softdirty_count_us", Unit: "us", Better: "lower"},
	{Name: "mem.index_containing_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.index_onpages_us", Unit: "us", Better: "lower"},
	{Name: "mem.donate_adopt_us_per_page", Unit: "us", Better: "lower"},
	{Name: "checkpoint.epoch_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.epoch_pages", Unit: "count", Better: "lower"},
	{Name: "checkpoint.epoch_pages_per_s", Unit: "1/s", Better: "higher"},
	{Name: "replaylog.log_records", Unit: "count", Better: "lower"},
	{Name: "types.diff_registry_us", Unit: "us", Better: "lower"},
	// Cost of looking: the traced cycles against the untraced ones.
	{Name: "obs.traced_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "obs.events", Unit: "count", Better: "higher"},
	{Name: "obs.dropped", Unit: "count", Better: "lower"},
}
