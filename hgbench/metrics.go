package main

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names and units (TestBenchmarkJSONListsTheMetrics
// keeps them equal).
type metricDef struct {
	name, unit string
	// layer is the repository module the metric describes ("" for an
	// end-to-end metric).
	layer string
	// moves is the end-to-end metric the layer metric should move, and
	// on which workloads the layer does the work ("-" = none).
	moves, on string
}

// endToEndMetrics are reported by every untraced run. t1_s..t3_s are the
// workload's three headline times; workload.slots says which they are.
var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "t1_s", unit: "s"},
	{name: "t2_s", unit: "s"},
	{name: "t3_s", unit: "s"},
}

// perLayerMetrics are reported by every traced run; a layer that does no
// work on the run's workload reports 0.
var perLayerMetrics = []metricDef{
	{"core.fuse_s", "s", "core", "setup_s", "all"},
	{"core.extract_s", "s", "core", "vii-c t2_s (compile_s)", "vii-c"},
	{"core.extract_states", "count", "core", "vii-c t2_s (compile_s)", "vii-c"},
	{"core.finalize_s", "s", "core", "vii-c t2_s (compile_s)", "vii-c"},
	{"core.memo_hit_ratio", "ratio", "core", "vii-c t2_s (compile_s)", "vii-c"},
	{"core.load_s", "s", "core", "vii-c t3_s (verdict_cached_s)", "vii-c"},
	{"core.artifact_bytes", "B", "core", "vii-c t3_s (verdict_cached_s)", "vii-c"},
	{"core.interp_premium", "ratio", "core", "vii-c t1_s (verdict_s)", "vii-c"},
	{"mcheck.explore_s", "s", "mcheck", "vii-c t1_s (verdict_s)", "vii-c"},
	{"mcheck.explore_table_s", "s", "mcheck", "vii-c t3_s (verdict_cached_s)", "vii-c"},
	{"mcheck.states", "count", "mcheck", "vii-c t1_s; litmus t1_s (suite_s)", "vii-c, litmus"},
	{"mcheck.transitions", "count", "mcheck", "vii-c t1_s (verdict_s)", "vii-c"},
	{"mcheck.por_ample_ratio", "ratio", "mcheck", "vii-c t1_s (verdict_s)", "vii-c"},
	{"mcheck.states_per_s", "1/s", "mcheck", "vii-c t1_s; litmus t1_s", "vii-c, litmus"},
	{"mcheck.cpu_per_state_us", "us", "mcheck", "vii-c t1_s; litmus t1_s", "vii-c, litmus"},
	{"mcheck.cpu_util", "ratio", "mcheck", "vii-c t1_s; litmus t1_s", "vii-c, litmus"},
	{"mcheck.states_per_s.w1", "1/s", "mcheck", "- (the Workers=1 path)", "vii-c"},
	{"mcheck.cpu_per_state_us.w1", "us", "mcheck", "- (the Workers=1 path)", "vii-c"},
	{"mcheck.table_bytes", "B", "mcheck", "peak_rss_mb", "vii-c"},
	{"mcheck.bytes_per_state", "B", "mcheck", "peak_rss_mb", "vii-c"},
	{"mcheck.peak_load", "ratio", "mcheck", "peak_rss_mb", "vii-c"},
	{"litmus.tests", "count", "litmus", "litmus t1_s (suite_s)", "litmus"},
	{"litmus.search_s", "s", "litmus", "litmus t1_s (suite_s)", "litmus"},
	{"litmus.self_s", "s", "litmus", "litmus t1_s (suite_s)", "litmus"},
	{"litmus.busy_frac", "ratio", "litmus", "litmus t1_s, t2_s", "litmus"},
	{"litmus.test_max_s", "s", "litmus", "litmus t1_s, t2_s", "litmus"},
	{"memmodel.allowed_s", "s", "memmodel", "litmus t1_s (suite_s)", "litmus"},
	{"workload.generate_s", "s", "workload", "fig10 t1_s (sim_s)", "fig10"},
	{"sim.run_s", "s", "sim", "fig10 t1_s (sim_s)", "fig10"},
	{"sim.host_ns_per_memop", "ns", "sim", "fig10 t1_s (sim_s)", "fig10"},
	{"sim.host_ns_per_msg", "ns", "sim", "fig10 t1_s (sim_s)", "fig10"},
	{"sim.memops_per_s", "1/s", "sim", "fig10 t1_s (sim_s)", "fig10"},
	{"sim.jobs", "count", "sim", "- (exact)", "fig10"},
	{"sim.memops", "count", "sim", "- (exact)", "fig10"},
	{"sim.messages", "count", "sim", "- (exact)", "fig10"},
	{"sim.flits", "count", "sim", "- (exact)", "fig10"},
	{"sim.handshakes", "count", "sim", "- (exact)", "fig10"},
	{"sim.cycles", "count", "sim", "- (exact)", "fig10"},
	{"sim.busy_frac", "ratio", "sim", "fig10 t1_s (sim_s)", "fig10"},
	{"sim.job_max_s", "s", "sim", "fig10 t1_s (sim_s)", "fig10"},
	{"server.submit_ms.p50", "ms", "server", "serve t1_s, t2_s, t3_s (every job)", "serve"},
	{"server.submit_ms.tail", "ms", "server", "serve t1_s (burst_s), t2_s (closed_tail_s)", "serve"},
	{"server.queue_wait_ms.p50", "ms", "server", "serve t1_s (burst_s)", "serve"},
	{"server.queue_wait_ms.tail", "ms", "server", "serve t1_s (burst_s)", "serve"},
	{"server.backlog_growth", "1/s", "server", "- (open loop at 16/s; README.md)", "serve"},
	{"server.run_ms.p50", "ms", "server", "serve t1_s (burst_s), t3_s (closed_s)", "serve"},
	{"server.run_ms.tail", "ms", "server", "serve t2_s (closed_tail_s)", "serve"},
	{"server.rejected", "ratio", "server", "failed", "serve"},
	{"serve.job_p50_ms.lo", "ms", "server", "- (open loop, too unsteady to gate; README.md)", "serve"},
	{"serve.job_p50_ms.hi", "ms", "server", "- (open loop, too unsteady to gate; README.md)", "serve"},
	{"serve.job_tail_ms.lo", "ms", "server", "- (open loop, too unsteady to gate; README.md)", "serve"},
	{"serve.job_tail_ms.hi", "ms", "server", "- (open loop, too unsteady to gate; README.md)", "serve"},
	{"gen.late_ms.tail", "ms", "generator", "- (a late generator invalidates the run)", "serve"},
	{"runtime.gc_cpu_frac", "ratio", "runtime", "t1_s, peak_rss_mb", "all"},
	{"runtime.alloc_mb", "MB", "runtime", "t1_s, peak_rss_mb", "all"},
	{"runtime.cpu_s", "s", "runtime", "t1_s", "all"},
	{"trace.overhead_s", "s", "hgbench", "- (traced pass wall minus the untraced median)", "all"},
}
