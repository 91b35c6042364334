// Package shard is popserver's serving path: a coordinator fanning
// scheduling rounds out over shard workers — POP's partitioned serving story
// at the process level: each worker owns an independent slice of the client
// population and 1/W of the resource pool, solves it on its own persistent
// engine, and the coordinator merges the per-shard allocations. popserver is
// always a coordinator; where its workers run is deployment. Coordinator and
// Worker meet at Transport (round + sync): NewCoordinator reaches worker
// processes over HTTP, NewLocalCoordinator calls Worker values in its own
// process, and the code on either side of the seam is one copy.
//
// # Topology
//
// Clients are assigned to workers by a consistent-hash ring (Ring): FNV-1a
// over 64 virtual points per worker, deterministic and recomputable from
// the worker count alone. Membership is never persisted — a restarted
// coordinator rebuilds the identical assignment, and growing the fleet
// moves only ~1/W of the clients.
//
// Each worker wraps one engine (EngineBundle: the incremental LP engine
// for maxmin/makespan/spacesharing, the price-discovery engine for price)
// that stays warm in-process across rounds: LP bases and carried prices
// survive between rounds wherever the worker runs.
//
// # Round protocol
//
// Every layer holds its client set between rounds in an ascending-id
// table (cluster.Table): the coordinator its registry, each engine its
// shard. A round therefore touches the population only where it changed —
// what it costs outside the solver is O(churn), plus shipping the rows.
//
// A round is one scatter/gather (Coordinator.Allocate over the registry
// popserver keeps current with Upsert/Remove, or Coordinator.Step for
// callers that hand over the whole active set each time):
//
//  1. Step only: the active set is diffed against the registry — an
//     unchanged client costs one comparison and a round stamp, there is no
//     per-round seen set — queueing per-worker mutation batches (sorted by
//     id, so an engine sees the same order whatever the fleet's shape).
//  2. Scatter: each worker receives RoundRequest{Round, PrevRound,
//     batch, its 1/W capacity slice} under a per-round deadline.
//  3. Workers apply the batch with Upsert/Remove and run the engine's
//     held-state round (Engine.Allocate): the engine solves over the
//     clients it holds and hands back its own id-ordered table with the
//     allocation aligned, so the worker never copies, sorts, or re-diffs
//     its shard. The allocation is answered in columnar form.
//  4. Gather/merge: each worker's last gather is kept as its sorted id
//     column plus one slab; the merge walks the requested order with a
//     cursor per worker (binary search when the order is not by id) and
//     writes one n×r slab.
//
// Mutations are idempotent, and a batch stays queued until the owning
// worker acknowledges the round that carried it.
//
// # Wire format
//
// The local transport passes the protocol structs by pointer (validated by
// the same RoundResponse.columns). Over HTTP they are single JSON documents
// — the popserver idiom, so curl, httptest, and the benchmark's wire tap all
// read them, and plain encoding/json decodes every type in protocol.go.
// A request is O(churn) and travels as ordinary JSON. A RoundResponse
// carries n rows, the one inherently O(n) step of a round, so its three
// columns travel packed: ids as little-endian int64s, eff_thr and x as
// little-endian float64 bit patterns, each column one base64 string
// ([]byte under encoding/json). A packed column moves at memcpy speed
// where a JSON number array pays strconv per value on both ends, and
// floats are bit-exact by construction rather than by round-tripping
// through decimal. There is one encoding: no negotiation, no flag, no
// number-array fallback. To read a column outside Go: base64-decode the
// string, then read 8-byte little-endian values.
//
// A response is checked once, in RoundResponse.columns, before anything
// indexes into it: every column a whole number of 8-byte values; as many
// ids as num_jobs says and one eff_thr per id; x either absent or the
// same width for every id (and, at the coordinator, the pool's width);
// ids strictly ascending; every value finite; the round the one asked
// for. Bodies are bounded on both ends — requests by a fixed cap on the
// worker, responses by a cap derived from how many clients the registry
// says the worker owns. A response failing any of this is not served:
// the worker is a straggler for the round, with an error naming it (an
// over-limit response also schedules a registry sync, since it means the
// worker holds clients it was never given). Requests are checked the same
// way on the worker (one throughput per GPU type, nothing negative)
// before they reach an engine. FuzzRoundResponse and FuzzRoundRequest
// hold both decoders to "never panic, never accept inconsistent columns".
//
// # Telemetry
//
// With an Observer set, a round is a "shard.round" span with children
// shard.diff (Step's registry diff), per-worker shard.gather lanes holding
// shard.encode and shard.decode (JSON work on either side of the HTTP
// wait; the local transport has neither), and shard.merge; a worker's side
// of it is "shard.worker.round" with apply, solve, extract, and (over HTTP)
// encode children. Each phase is also a histogram —
// pop_shard_phase_seconds{phase=...} on the coordinator,
// pop_shard_worker_phase_seconds{phase=...} on the worker — so the
// coordinator's share of a round is read directly instead of inferred by
// subtraction. Without an Observer each hook is one pointer check.
//
// # Failure model
//
// Stragglers: a worker that misses the deadline — or fails the round, or
// answers garbage; over either transport — keeps last round's rows for its
// clients, each flagged Stale in the merged allocation — serving
// degrades to slightly old allocations instead of blocking the round.
// Its batch remains queued; PrevRound tracking makes re-application safe
// whether the worker finished late (it is ahead and accepts the re-send)
// or never applied (it re-applies the identical batch).
//
// Crashes: a restarted worker has lastRound 0 and answers 409 to the next
// round. The coordinator then pushes a reconciling SyncRequest carrying
// the worker's whole shard from the registry (upsert everything, remove
// what the worker holds that the registry lacks) and retries the round —
// rebuild is one extra round trip, inside the same deadline. A worker
// restarted from its -state-file resumes at its saved round with warm
// engine state and needs no sync at all.
//
// The inverse failure — a coordinator restarted with an empty registry
// facing warm workers — is caught by job-count accounting: a worker
// reporting more jobs than the registry says it owns is flagged for a
// reconciling sync at the next round, which removes the zombies.
//
// # Security
//
// WorkerOptions.Token / CoordinatorOptions.Token gate the mutating
// endpoints with a shared bearer token (constant-time compare); health
// and metrics stay open for probes.
package shard
