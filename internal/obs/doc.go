// Package obs is the repository's zero-dependency observability layer:
// a lock-light metrics registry with a Prometheus text exporter, and a
// span/event tracer that emits Chrome trace-event JSON. The solver stack
// (lp, online, milp) and the popserver daemon hook into it through the
// nil-safe Observer bundle, so the disabled path — the default everywhere —
// costs one pointer check per hook site and allocates nothing.
//
// # Design
//
// The POP paper's claim is empirical: partitioned sub-problems cut solve
// latency with negligible quality loss. End-of-run bench JSON can state
// that, but it cannot say *where* a slow round spent its time (LU
// factorization vs pivots vs model rebuild), which warm starts fell back
// cold, or what a live popserver is doing right now. obs closes that gap
// with two complementary views:
//
//   - Metrics are cheap cumulative aggregates, always safe to leave on in
//     a server: atomic counters, gauges, and fixed-bucket latency
//     histograms, exported in Prometheus text format (popserver's
//     GET /metrics).
//   - Traces are detailed per-run timelines, enabled for one bench run or
//     one debugging session: every solve, round, and search node becomes a
//     span in a Chrome trace-event JSON file that chrome://tracing or
//     https://ui.perfetto.dev opens directly (the benches' -trace flag).
//
// # Metrics
//
// A Registry hands out get-or-create metric handles by name:
//
//	reg := obs.NewRegistry()
//	solves := reg.Counter("pop_lp_solves_total", "completed LP solves")
//	solves.Inc()
//	lat := reg.Histogram("pop_round_seconds", "round latency", nil)
//	lat.Observe(dur.Seconds())
//
// Counters and gauges are single atomics; histograms are a fixed array of
// atomic bucket counts (no locks on the observe path). The registry itself
// takes an RWMutex read lock only on handle lookup — callers on hot paths
// resolve handles once and keep them. A name may carry a constant
// Prometheus label block, e.g. `pop_http_request_seconds{path="/v1/jobs"}`;
// the exporter groups such series under one HELP/TYPE header. Every method
// is nil-receiver-safe: a nil *Registry returns nil handles, and nil
// handles accept Add/Set/Observe as no-ops, which is what makes the
// Observer plumbing free when disabled.
//
// # Traces
//
// A Trace collects complete ("X") and instant ("i") events keyed by a
// thread-id lane. Span nesting is by wall-clock containment: a parent span
// that ends after its children encloses them in the viewer. Conventions
// used across the repository:
//
//	run                              bench top-level (tid 0)
//	online.round                     one engine round (engine tid)
//	online.{rebuild,refresh,extract,subsolve}   per-partition lanes (tid base+1+p)
//	lp.solve                         one LP solve, with phase children:
//	lp.{standardize,factor,refactor,phase1,phase2,dual,warm-repair}
//	lp.dual's verdict arg            optimal | infeasible (certified) | uncertified | rejected | …
//	lp.cold-fallback, lp.dual-reject instants marking abandoned warm paths
//	lp.dense-retry                   instant: sparse backend failed, dense retry
//	milp.search / milp.node          branch and bound; nodes on lane TID+1
//	milp.{jump,fathom,incumbent}     instants on the node lane
//	price.round / price.solve / price.bestresponse   price engine round, solve, iteration
//	shard.round                      one coordinator scatter/gather round, with children:
//	shard.diff                       Step's registry diff (engine tid)
//	shard.gather                     one worker's request, lane tid base+1+worker, holding
//	shard.{encode,decode}            packing the request frame; reading the answer (HTTP only)
//	shard.merge                      composing the gathered columns (engine tid)
//	shard.worker.round               a worker's side of a round, with children:
//	shard.worker.{apply,solve,extract,encode}   batch, engine round, packing, header
//
// The shard phases are Timed: each is also a latency histogram,
// pop_shard_phase_seconds{phase="diff|encode|decode|merge"} on the
// coordinator's registry and
// pop_shard_worker_phase_seconds{phase="round|apply|solve|extract|encode"}
// on the worker's, so the split a trace shows for one round is on /metrics
// for all of them. lp.refactor is Timed the same way: every basis
// refactorization is also an observation in pop_lp_refactor_seconds, and
// the gauge pop_lp_factor_nnz holds the L+U fill of the latest one.
//
// # Observer
//
// Observer bundles a Registry, a Trace (either may be nil), and the trace
// lane (TID) the holder should emit on. Solver options embed *Observer
// (lp.Options.Obs, online.Options.Obs, milp.Options.Obs); fan-out layers
// derive per-partition or per-worker lanes with WithTID. All methods are
// nil-safe, so instrumented code reads
//
//	sp := opts.Obs.Span("lp.phase2")   // no-op when Obs is nil
//	...
//	sp.End()
//
// and the only cost on the disabled path is the nil check. Observer.Timed
// is the same for a phase that should also land in a histogram: one call
// opens the span and resolves the series, End closes both. CI enforces
// this with an overhead-guard test comparing obs-disabled and obs-enabled
// solves on a mid-size generated instance.
package obs
