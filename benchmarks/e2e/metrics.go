package main

// metricDef names one number the harness prints. BENCHMARK.json lists the
// same names, units and directions; TestNamesMatchBenchmarkJSON keeps the
// two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median the metric may worsen by
}

// endToEnd are the gated metrics, measured with tracing off. Only
// quantities that repeated across sizing runs are here; p90/p99, process
// CPU and peak RSS did not and are per-layer diagnostics below. The two
// timing bounds and setup_s are at the contract's ceiling of a quarter, not
// the 5 % and 10 % the issue asked for: the driver refused those, because on
// its shared 2-vCPU box ten runs of the same code spread by up to 12 % of
// their median (benchmarks/README.md, "A/A spread"), and a bound has to hold
// the run-to-run spread.
var endToEnd = []metricDef{
	{"rounds_per_s", "1/s", "higher", 0.25},
	{"round_p50_ms", "ms", "lower", 0.25},
	{"alloc_mb_per_round", "MB", "lower", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's numbers, per round unless the name says
// otherwise. A layer that does not run on a workload reports 0 there.
var perLayer = layerDefs()

func layerDefs() []metricDef {
	defs := []metricDef{
		// hear: the typed entry points around the encrypted collective.
		{"hear.marshal_ms", "ms", "lower", 0},
		{"hear.unattributed_ms", "ms", "lower", 0},
		{"hear.overhead_ratio", "ratio", "lower", 0},
		// internal/core (+prf, hfp): scheme kernels, busy time summed over
		// shards and blocks on participant 0.
		{"core.encrypt_ms", "ms", "lower", 0},
		{"core.decrypt_ms", "ms", "lower", 0},
		{"core.reduce_ms", "ms", "lower", 0},
		{"core.encrypt_ns_per_elem", "ns", "lower", 0},
		{"core.decrypt_ns_per_elem", "ns", "lower", 0},
		{"core.calls", "count", "lower", 0},
		{"prf.keystream_gbps", "GB/s", "higher", 0},
		{"prf.efficiency_pct", "%", "higher", 0},
		{"hfp.share_pct", "%", "lower", 0},
		// internal/engine: shard timings of the communicator's shared pool.
		{"engine.shards_per_call", "count", "higher", 0},
		{"engine.encrypt_ms", "ms", "lower", 0},
		{"engine.decrypt_ms", "ms", "lower", 0},
		{"engine.reduce_ms", "ms", "lower", 0},
		// internal/mpi.
		{"mpi.plain_allreduce_ms", "ms", "lower", 0},
		{"mpi.wait_ms", "ms", "lower", 0},
		// hear.GatewaySealer and internal/homac on client 0.
		{"sealer.seal_ms", "ms", "lower", 0},
		{"sealer.verify_ms", "ms", "lower", 0},
		{"sealer.open_ms", "ms", "lower", 0},
		{"homac.tag_ms", "ms", "lower", 0},
		{"homac.verify_ms", "ms", "lower", 0},
		// internal/aggsvc client and the wire under client 0.
		{"wire.join_wait_ms", "ms", "lower", 0},
		{"wire.result_wait_ms", "ms", "lower", 0},
		{"wire.submit_write_ms", "ms", "lower", 0},
		{"wire.bytes_out", "B", "lower", 0},
		{"wire.bytes_in", "B", "lower", 0},
		{"wire.efficiency_pct", "%", "higher", 0},
	}
	for _, role := range serverRoles {
		for _, m := range serverMetrics {
			m.name = role + m.name
			defs = append(defs, m)
		}
	}
	defs = append(defs,
		// internal/aggsvc/federation: the leaf's uplink.
		metricDef{"federation.negotiate_ms", "ms", "lower", 0},
		metricDef{"federation.relay_ms", "ms", "lower", 0},
		metricDef{"federation.upstream_failures", "count", "lower", 0},
		// Process diagnostics of the untraced phase; they did not repeat
		// within a tenth across runs, so nothing gates on them.
		metricDef{"proc.cpu_ms", "ms", "lower", 0},
		metricDef{"proc.peak_rss_mb", "MB", "lower", 0},
		metricDef{"proc.allocs", "count", "lower", 0},
		metricDef{"proc.gc_cycles", "count", "lower", 0},
		metricDef{"proc.gc_pause_ms", "ms", "lower", 0},
		metricDef{"lat.p90_ms", "ms", "lower", 0},
		metricDef{"lat.p99_ms", "ms", "lower", 0},
		metricDef{"lat.samples", "count", "higher", 0},
		// Spans inside setup_s.
		metricDef{"setup.init_ms", "ms", "lower", 0},
		metricDef{"setup.connect_ms", "ms", "lower", 0},
		metricDef{"setup.warmup_ms", "ms", "lower", 0},
		// What this box allows: denominators, never gated.
		metricDef{"ceil.aes_ctr_gbps", "GB/s", "higher", 0},
		metricDef{"ceil.memmove_gbps", "GB/s", "higher", 0},
		metricDef{"ceil.loopback_writev_gbps", "GB/s", "higher", 0},
		metricDef{"ceil.loopback_rtt_us", "us", "lower", 0},
		// The tracing itself.
		metricDef{"trace.overhead_pct", "%", "lower", 0},
		metricDef{"trace.budget_closure_pct", "%", "higher", 0},
	)
	return defs
}

// serverMetrics are the aggsvc.Server.StatsMap deltas, emitted once per
// gateway role: "aggsvc." for the flat gateway, "leaf.aggsvc." and
// "root.aggsvc." for the two tiers of the cascade.
var serverMetrics = []metricDef{
	{"recv_ms", "ms", "lower", 0},
	{"fold_ms", "ms", "lower", 0},
	{"wait_ms", "ms", "lower", 0},
	{"send_ms", "ms", "lower", 0},
	{"relay_ms", "ms", "lower", 0},
	{"pool_waits", "count", "lower", 0},
	{"pool_misses", "count", "lower", 0},
	{"chunks_folded", "count", "lower", 0},
	{"bytes_in", "B", "lower", 0},
	{"bytes_out", "B", "lower", 0},
	{"rounds_aborted", "count", "lower", 0},
	{"clients_evicted", "count", "lower", 0},
}

var serverRoles = []string{"aggsvc.", "leaf.aggsvc.", "root.aggsvc."}
