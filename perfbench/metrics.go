package main

// metricSpec is one reported metric. The lists below are the benchmark's
// contract and must match BENCHMARK.json (TestMetricsMatchBenchmarkJSON).
type metricSpec struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the library or the daemon sees,
// reported by untraced runs. Their times are CPU times: on a shared host
// the hypervisor steals a varying share of the virtual CPUs, which moves
// wall time from run to run, and the kernel leaves stolen time out of a
// process's CPU time.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"cpu_ms_per_answer", "ms"},
	{"ok_frac", "frac"},
	{"scans_per_answer", "count"},
	{"space_words.p50", "words"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0. The answer_ms and answers_per_s metrics are wall-clock
// latency and rate, taken from the run's untraced answers.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"answer_ms.p50", "ms"},
		{"answer_ms.tail", "ms"},
		{"answers_per_s", "1/s"},
		{"stream.open_ms", "ms"},
		{"stream.read_ms", "ms"},
		{"stream.read_share", "frac"},
		{"stream.edges_read", "count"},
		{"stream.scans", "count"},
		{"stream.decode_cache.hit_ratio", "frac"},
		{"stream.decode_cache.evictions", "count"},
		{"degen.peel_ms", "ms"},
		{"degen.passes", "count"},
		{"degen.space_words", "words"},
		{"degen.kappa_ratio", "ratio"},
		{"core.fixed_t_ms", "ms"},
		{"core.search_overhead_x", "ratio"},
		{"core.passes_per_answer", "count"},
	}
	for _, kind := range passKindOrder {
		for _, part := range []string{"wall_ms", "body_ms", "merge_ms"} {
			specs = append(specs, metricSpec{"passes." + kind + "." + part, "ms"})
		}
	}
	return append(specs, []metricSpec{
		{"passes.engine_ms", "ms"},
		{"sched.scans_per_pass", "ratio"},
		{"sched.carried_per_scan", "ratio"},
		{"sched.scans_per_request", "count"},
		{"server.elapsed_ms.p50", "ms"},
		{"server.wait_ms.p50", "ms"},
		{"server.shed_frac", "frac"},
		{"loadgen.late_ms.max", "ms"},
		{"quality.rel_err.p50", "frac"},
		{"quality.within_eps_frac", "frac"},
		{"process.peak_rss_mb", "MB"},
		{"trace.overhead", "ratio"},
	}...)
}()
