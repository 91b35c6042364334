// Package shard is popserver's serving path: a coordinator fanning
// scheduling rounds out over shard workers — POP's partitioned serving story
// at the process level: each worker owns an independent slice of the client
// population and 1/W of the resource pool, solves it on its own persistent
// engine, and the coordinator merges the per-shard allocations. popserver is
// always a coordinator; where its workers run is deployment. Coordinator and
// Worker meet at Transport, one call (the round): NewCoordinator reaches worker
// processes over HTTP, NewLocalCoordinator calls Worker values in its own
// process, and the code on either side of the seam is one copy.
//
// # Topology
//
// Clients are assigned to workers by jump consistent hash (Lamping & Veach
// 2014) over a splitmix64 finalizer of the id (owner): a pure function of
// the id and the worker count, with no ring, table or virtual points.
// Membership is never persisted — a restarted coordinator rebuilds the
// identical assignment, and growing the fleet from W to W+1 workers moves
// about 1/(W+1) of the clients, all onto the new worker. Shard sizes differ
// only by binomial noise, about 1/√(n/W): every worker gets 1/W of the
// pool, so under max-min the busiest shard caps the served level at
// mean/max of the optimum, and that cap is what the hash must keep near 1.
// A worker restored from a state file written under another fleet shape or
// hash holds clients it does not own. Over remote workers the job-count
// accounting below catches it: the registry starts empty, so the worker
// reports more clients than it owns. NewLocalCoordinator seeds the registry
// from its workers, so it checks each restored id against owner instead and
// sends a wrong holder a full round first.
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
//     per-round seen set, and an ascending cold load appends every client
//     in place — queueing per-worker mutation batches. A batch is the list
//     of ids touched since the worker's last ack; packing it sorts it by id
//     (so an engine sees the same order whatever the fleet's shape) and
//     resolves each id against the registry: an upsert of the client's
//     current data if the registry holds it, a remove if not.
//  2. Scatter: each worker receives RoundRequest{Round, PrevRound,
//     batch, its 1/W capacity slice} under a per-round deadline. A worker
//     due a rebuild gets a full round instead: Full set, the batch its
//     whole shard from the registry.
//  3. Workers apply the batch with Upsert/Remove and run the engine's
//     held-state round (Engine.Allocate): the engine solves over the
//     clients it holds and hands back its own id-ordered table with the
//     allocation aligned, so the worker never copies, sorts, or re-diffs
//     its shard. The allocation is answered in columnar form.
//  4. Gather/merge: each worker's last gather is kept as the frame it
//     arrived in, validated where it lies. The merge walks the requested
//     order with a cursor per worker and takes each row from whichever
//     cursor holds its id — W compares, no hashing — into one n×r slab.
//     Only a row no cursor holds (an order not by id, a client a stale
//     worker never allocated) is looked up by owner and binary search, as
//     are all rows of a worker due a rebuild (its client count disagrees
//     with the registry, or its first gather held a client it does not
//     own), since it may hold clients it does not own.
//
// Mutations are idempotent, and a batch stays queued until the owning
// worker acknowledges the round that carried it. What is left of a round
// that is O(n) is shipping the rows back and merging them: one copy of each
// row per side.
//
// # Wire format
//
// Health answers and error bodies are single JSON documents, the popserver
// idiom. A request to PathRound and its 200 answer are frames (Content-Type
// application/vnd.pop.round-frame): one small JSON header, then raw
// little-endian columns that the header sizes, with nothing between the
// closing brace and the first column or after the last. The header's
// "wire" is the layout's version, 3 in both directions.
//
// A round request (RoundRequest) carries the shard's mutations, or with
// "full":true its whole client set and no removes:
//
//	{"wire":3,"round":…,"prev_round":…,"full":true,"gpu_types":[…],"gpus":[…],
//	 "removes_bytes":…,"ids_bytes":…,"throughput_bytes":…}   ≤ 64 KiB
//	removes     removes_bytes     int64 ids to drop, ascending
//	ids         ids_bytes         int64 ids upserted, ascending
//	throughput  throughput_bytes  float64, row-major n × len(gpus)
//	weight, scale, num_steps, mem_frac, priority   float64, ids_bytes each
//
// so a batch of u upserts and d removes is the header plus
// 8·(u·(6+width) + d) bytes. The header holds nothing time- or
// run-dependent, so a round's request size repeats exactly. A round answer
// (RoundResponse) carries the shard's allocation:
//
//	{"wire":3,"round":…,"num_jobs":…,"solve_ms":…,"kind":…,"stats":{…},
//	 "ids_bytes":…,"eff_thr_bytes":…,"x_bytes":…}   one JSON object, ≤ 64 KiB
//	ids      ids_bytes      little-endian int64, ascending
//	eff_thr  eff_thr_bytes  little-endian float64 bit patterns
//	x        x_bytes        the same, row-major n × width
//
// No value passes through text, so floats are bit-exact, and a row's bytes
// are touched once a side: the sender packs the columns into one buffer
// with the header in front of them and sends it in one write; the receiver
// reads the body once into a buffer sized from Content-Length, decodes the
// header with a streaming json.Decoder (it stops at the object's end), and
// validates the columns where they lie. The local transport hands the same
// struct and bytes across by pointer, through the same readers. There is
// one encoding: no negotiation, no flag, no fallback. A worker answers a
// request of another version — a JSON body, which has none, included —
// with a 400 saying "wire version N, want 3"; a coordinator answers a
// response of another version (or a 200 that is not a frame) with the same
// words as that worker's straggler error, and one from before the frame
// rejects it whole (json.Unmarshal sees bytes after the top-level value).
// By hand, `curl -s … | head -c 400` prints a response's header; a script
// decodes the body's first JSON value and reads 8-byte values after.
//
// Each direction is checked once, where it lies, before anything indexes
// into it. A request, in RoundRequest.read on the worker before any engine
// sees a job: the version; capacities ≥ 0, a name for each or none;
// declared lengths filling the body exactly; throughput rows of the pool's
// width; no removes in a full round; both id columns strictly ascending;
// every value finite and ≥ 0.
// A response, in RoundResponse.accept: declared lengths filling the body
// exactly, column shapes against num_jobs and the pool's width, ids
// strictly ascending, every value finite, the round the one asked for.
// Bodies are bounded on both ends — requests by a fixed cap on the worker,
// responses by a header allowance plus twice the raw columns of the clients
// the registry says the worker owns, enforced before the body is buffered.
// A request failing any of this is answered 400. A response failing any of
// it is not served: the worker is a straggler for the round, with an error
// naming it (an over-limit response also schedules a full round, since it
// means the worker holds clients it was never given). FuzzRoundRequest
// (delta and full rounds, over a worker already holding clients) and
// FuzzRoundResponse hold the readers to "never panic, never accept
// inconsistent columns".
//
// # Telemetry
//
// With an Observer set, a round is a "shard.round" span with children
// shard.diff (Step's registry diff), per-worker shard.gather lanes holding
// shard.encode (packing the request frame) and, over HTTP, shard.decode
// (reading the answer after the HTTP wait), and shard.merge; a worker's side
// of it is "shard.worker.round" with apply, solve, extract, and (over HTTP)
// encode children. Each phase is also a histogram —
// pop_shard_phase_seconds{phase=...} on the coordinator,
// pop_shard_worker_phase_seconds{phase=...} on the worker — so the
// coordinator's share of a round is read directly instead of inferred by
// subtraction; pop_shard_request_bytes and pop_shard_response_bytes size
// every round frame sent to and by a worker over HTTP. Without an Observer
// each hook is one pointer check.
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
// round. The coordinator resends the round as a full one, inside the same
// deadline: the worker's whole shard from the registry, which the worker
// applies without the PrevRound check, dropping whatever it holds that is
// not listed, then solves and answers as in any round. There is no
// separate sync request: a rebuild costs one extra request after a 409,
// and none for a worker already flagged, whose next round simply goes out
// full. A worker restarted from its -state-file resumes at its saved round
// with warm engine state and needs no rebuild at all.
//
// A pool of another width: a worker answers 409 to a delta round whose pool
// has another number of GPU types than the clients it holds, which an
// engine would index past, and the coordinator's full resend relists every
// client at the new width. popserver keeps the width across PUT
// /v1/cluster, so only another coordinator sends such a round.
//
// The inverse failure — a coordinator restarted with an empty registry
// facing warm workers — is caught by job-count accounting: a worker
// reporting more jobs than the registry says it owns is flagged, and its
// next round is a full one, which drops the zombies. A full round that
// fails leaves the flag set, so the next round is full again.
//
// # Security
//
// WorkerOptions.Token / CoordinatorOptions.Token gate the mutating
// endpoints with a shared bearer token (constant-time compare); health
// and metrics stay open for probes.
package shard
