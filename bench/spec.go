package main

import "time"

// metric is one named number the benchmark prints. BENCHMARK.json repeats
// name, unit, better and (for end-to-end metrics) bound, and README.md
// defines each one and says which end-to-end metric a layer metric should
// move; bench_test.go fails when either drifts from this table.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression; 0 on per-layer
	// metrics, which are diagnostics and carry no bound.
	Bound float64
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all five. Tail latency is deliberately absent: with well under a
// hundred rounds per pass on a shared box a p90 does not repeat within a
// tenth, so it is a per-layer diagnostic (proc.round_ms_p90) instead.
var endToEnd = []metric{
	{Name: "round_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rounds_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "quality_pct", Unit: "%", Better: "higher", Bound: 0.08},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer lists the single-layer diagnostics of the traced run. Every
// workload prints every name; a metric of a layer the workload never
// enters reads 0. Counters are per timed round.
var perLayer = []metric{
	{Name: "shard.handler_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "shard.worker_solve_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "shard.worker_overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "shard.coord_overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "shard.req_bytes", Unit: "bytes", Better: "lower"},
	{Name: "shard.resp_bytes", Unit: "bytes", Better: "lower"},
	{Name: "shard.json_encode_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "shard.json_decode_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "shard.stale_rounds", Unit: "count", Better: "lower"},
	{Name: "shard.rebuilds", Unit: "count", Better: "lower"},
	{Name: "shard.load_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "price.iterations", Unit: "count", Better: "lower"},
	{Name: "price.warm_rounds", Unit: "count", Better: "higher"},
	{Name: "price.cold_rounds", Unit: "count", Better: "lower"},
	{Name: "price.nonconverged_rounds", Unit: "count", Better: "lower"},
	{Name: "price.residual_max", Unit: "ratio", Better: "lower"},
	{Name: "price.direct_step_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "online.sub_solves", Unit: "count", Better: "lower"},
	{Name: "online.skipped_clean", Unit: "count", Better: "higher"},
	{Name: "online.warm_hit_pct", Unit: "%", Better: "higher"},
	{Name: "online.build_ms", Unit: "ms", Better: "lower"},
	{Name: "online.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "online.direct_step_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "lp.pivots", Unit: "count", Better: "lower"},
	{Name: "lp.dual_pivots", Unit: "count", Better: "lower"},
	{Name: "lp.vars", Unit: "count", Better: "lower"},
	{Name: "lp.us_per_pivot", Unit: "us", Better: "lower"},

	{Name: "core.partition_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "te.paths_ms", Unit: "ms", Better: "lower"},
	{Name: "te.flow_spread_pct", Unit: "%", Better: "lower"},

	{Name: "milp.nodes", Unit: "count", Better: "lower"},
	{Name: "milp.warm_node_pct", Unit: "%", Better: "higher"},
	{Name: "milp.cold_fallbacks", Unit: "count", Better: "lower"},
	{Name: "milp.build_ms", Unit: "ms", Better: "lower"},
	{Name: "milp.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "lb.movements", Unit: "count", Better: "lower"},
	{Name: "lb.moved_bytes", Unit: "count", Better: "lower"},
	{Name: "lb.band_dev_max", Unit: "ratio", Better: "lower"},
	{Name: "lb.coverage_err_max", Unit: "ratio", Better: "lower"},
	{Name: "lb.optimal_round_pct", Unit: "%", Better: "higher"},

	{Name: "proc.cpu_ms_per_round", Unit: "ms", Better: "lower"},
	{Name: "proc.alloc_mb_per_round", Unit: "MB", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.round_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "proc.pass_spread_pct", Unit: "%", Better: "lower"},
	{Name: "proc.calib_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "proc.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// sizes fixes how much work one pass of each workload does. The full sizes
// were chosen on a 2-core box so that a pass takes 2–4 s — short enough
// that a 26 s run holds six or more passes for the best-of-passes timing to
// choose from — while the quantities that depend on the seed average over
// enough clients, traffic matrices and instances to repeat from one seed to
// the next.
type sizes struct {
	// serve-*: clients per fleet, POP sub-problems per worker (LP policy),
	// timed rounds per pass, share of clients replaced per round, and the
	// client count of the exact-optimum replica quality is measured against.
	PriceClients, LPClients, LPK int
	ServeRounds                  int
	Churn                        float64
	RefClients                   int
	// batch-te: Kdl scale factor, commodities, POP sub-problems, client
	// splitting threshold, traffic matrices per pass, timed rounds (one
	// partition seed each, cycling through the matrices).
	TEScale       float64
	TECommodities int
	TEK           int
	TESplit       float64
	TEMatrices    int
	TERounds      int
	// batch-lb: instance shape, POP sub-problems, independent instances per
	// pass, timed rounds per instance, branch-and-bound node cap.
	LBShards, LBServers, LBK int
	LBInstances, LBRounds    int
	LBMaxNodes               int
}

var fullSizes = sizes{
	PriceClients: 50_000, LPClients: 10_000, LPK: 16,
	ServeRounds: 20, Churn: 0.01, RefClients: 1000,
	TEScale: 0.3, TECommodities: 1000, TEK: 4, TESplit: 0.25, TEMatrices: 6, TERounds: 12,
	LBShards: 48, LBServers: 12, LBK: 4, LBInstances: 64, LBRounds: 5, LBMaxNodes: 400,
}

// quickSizes finish the whole benchmark in a few seconds (bench_test.go).
var quickSizes = sizes{
	PriceClients: 2000, LPClients: 800, LPK: 4,
	ServeRounds: 4, Churn: 0.01, RefClients: 200,
	TEScale: 0.12, TECommodities: 300, TEK: 2, TESplit: 0.25, TEMatrices: 2, TERounds: 2,
	LBShards: 48, LBServers: 12, LBK: 4, LBInstances: 2, LBRounds: 4, LBMaxNodes: 500,
}

const (
	// numWorkers is the fleet size of the serve workloads: one worker per
	// core of the 2-core box the sizes were chosen on.
	numWorkers = 2
	// warmupRounds are run and verified but not timed, so caches, warm
	// bases and carried prices are in their steady state when timing starts.
	warmupRounds = 2
	// shardDeadline is far above any round so no worker is ever written
	// off as a straggler: a stale round is a failure here, not a feature.
	shardDeadline = 120 * time.Second

	basePasses       = 5
	extraPassesCap   = 3
	spreadForExtraPc = 8.0
	minTimedPasses   = 3
)
