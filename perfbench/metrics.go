package main

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd metrics are what a user of the system sees, measured with
// tracing off on every workload. A batch job is one suite or matrix run; a
// serve job is one request from POST to report in hand.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},       // median of several set-ups: LoadBenchmark of every design, or smserve start until /healthz answers
	{"wall_s", "s", "lower"},        // first job submitted to last report received and checked
	{"cpu_s", "s", "lower"},         // user+system CPU of the working process over wall_s
	{"peak_rss_mb", "MiB", "lower"}, // peak resident set of that process
	{"jobs_per_s", "jobs/s", "higher"},
	{"job_p50_s", "s", "lower"},
	{"job_p90_s", "s", "lower"}, // nearest rank; the sample count is printed with it
}

// perLayer metrics come from the traced run (batch) or from the client's
// timings, the job timestamps and /v1/stats (serve-mix). A layer a workload
// bypasses reads 0. Times are summed span self times.
var perLayer = []metricDef{
	{"bench.load_s", "s", "lower"},
	{"cell.bind_s", "s", "lower"},
	{"place.place_s", "s", "lower"},
	{"route.route_all_s", "s", "lower"},
	{"route.nets", "count", "lower"},
	{"route.vias", "count", "lower"},
	{"route.overflow_edges", "count", "lower"},
	{"route.corridor_nets", "count", "higher"},
	{"route.flat_fallbacks", "count", "lower"},
	{"route.flat_fallback_ratio", "ratio", "lower"},
	{"route.batch_escapes", "count", "lower"},
	{"route.nego_corridor", "count", "higher"},
	{"defense.build_s", "s", "lower"},
	{"defense.randomize-correction.build_s", "s", "lower"},
	{"defense.naive-lifted.build_s", "s", "lower"},
	{"defense.pin-swapping.build_s", "s", "lower"},
	{"defense.swaps", "count", "higher"},
	{"timing.analyze_s", "s", "lower"},
	{"layout.split_s", "s", "lower"},
	{"layout.vpins", "count", "higher"},
	{"metrics.score_s", "s", "lower"},
	{"attack.proximity_s", "s", "lower"},
	{"attack.proximity_candidates", "count", "lower"},
	{"attack.crouting_s", "s", "lower"},
	{"attack.crouting_vpins", "count", "higher"},
	{"sim.compare_s", "s", "lower"},
	{"sim.pattern_words", "count", "higher"},
	{"flow.cache_hits", "count", "higher"},
	{"flow.cache_misses", "count", "lower"},
	{"server.admit_s", "s", "lower"},
	{"server.fetch_s", "s", "lower"},
	{"server.queue_wait_s", "s", "lower"},
	{"server.run_s", "s", "lower"},
	{"server.hit_run_s", "s", "lower"},
	{"server.cache_hits", "count", "higher"},
	{"server.cache_misses", "count", "lower"},
	{"server.disk_hits", "count", "higher"},
	{"server.evictions", "count", "lower"},
	{"server.hit_ratio", "ratio", "higher"},
	{"store.entries", "count", "lower"},
	{"store.bytes", "B", "lower"},
	{"store.quarantined", "count", "lower"},
	// Deterministic quality of the reproduction at the workload seed, from
	// the reports the traced run checks its replay against.
	{"ccr_pct", "%", "lower"},
	{"oer_pct", "%", "higher"},
	{"power_overhead_pct", "%", "lower"},
	{"delay_overhead_pct", "%", "lower"},
	{"crouting_match_pct", "%", "lower"},
	// The traced run's own cost: replay wall time and the share of it no
	// layer span covers.
	{"replay.wall_s", "s", "lower"},
	{"replay.unattributed_pct", "%", "lower"},
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// collect maps every metric of defs to its value in vals (0 when absent).
func collect(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}
