// Package online is the stateful incremental allocation engine: it keeps a
// POP-partitioned problem alive across scheduling rounds, accepts deltas
// (client arrive/depart, load change, resource capacity change), and
// re-solves only the sub-problems the deltas touched, each warm-started
// from its previous optimal basis. One generic engine drives the two case
// studies that run round after round through the Adapter contract:
// ClusterEngine (solo GPU scheduling and pair-variable space sharing) and
// LBEngine (shard balancing). It is the round-loop driver behind gavelsim's
// online policies, lb's online balancer, and cmd/popserver. Traffic
// engineering (§4.2) is planned in batch by te.SolvePOP.
//
// # Stable partitions
//
// Where the batch POP adapters (cluster.SolvePOP, lb.SolvePOP, te.SolvePOP)
// re-partition clients from scratch every call, the engine repartitions
// minimally:
//
//   - a new client joins the sub-problem with the smallest current total
//     load (ties: fewest members, then lowest index), and nothing else
//     moves;
//   - a departing client leaves its sub-problem; survivors keep both their
//     sub-problem and their relative order inside it;
//   - a load change keeps the client where it is.
//
// These invariants mean a delta dirties exactly one sub-problem (a resource
// capacity change dirties all of them, since every sub-problem holds 1/k of
// each resource), so a round's work is proportional to the number of
// sub-problems actually touched. The price is partition drift, bounded by
// Options.Rebalance: each round at most one client moves from the most- to
// the least-loaded sub-problem, only when that strictly narrows their
// spread, so the spread shrinks monotonically while reassignment stays
// minimal. Moves are deterministic, so warm and cold engines stay
// comparable.
//
// # The adapter contract
//
// The generic engine owns everything domain-independent: one record per
// sub-problem (its members, load, dirty mark, persistent lp.Model and the
// blocks that model holds), the stable placement, the rebuild-vs-splice
// decision, solve timing, and Stats. A domain plugs in by implementing
// Adapter:
//
//   - Layout(p, ids, buf) appends the sub-problem's block sequence to buf —
//     each Block a keyed run of Vars variables and Rows rows. Keys name the
//     owning client (BlockKey{id, NoPartner}) or client pair
//     (BlockKey{a, b}); one client may own many blocks, which is what lets
//     the space-sharing LP — a slot block per job plus one per single-GPU
//     pair — live online.
//   - BuildModel constructs a fresh model for a layout; SpliceBlock inserts
//     one block's structure into a live model at engine-computed positions;
//     RefreshModel rewrites every data-dependent value afterward.
//
// The LP itself lives in its domain package, written once for the batch
// solver and the engine alike: BuildModel is one call to the domain's
// builder (cluster.SoloModel, cluster.SpaceSharingModel), and RefreshModel
// recomputes coefficients with the domain's row helpers (cluster.RateRow,
// cluster.SlotTerms), so a K = 1 engine's first round is the batch solve.
// The lb adapter is the exception: it builds its relaxation here, because
// sharing lb.BuildMILP's build would reorder the batch MILP's rows.
//   - Extract caches a sub-problem's solution; Clear empties it.
//
// Block-shape rules: a model lays out its blocks contiguously in layout
// order — block variables first, then shared variables (the cluster
// epigraph t); block rows first, then shared rows (GPU capacity rows, lb's
// per-server band and memory rows). Shared structure must keep a fixed
// shape across membership churn (one capacity row per GPU type, three rows
// per server, however many members the sub-problem holds), so the
// shared-row region never moves. A block's structure is a pure function of
// its key and shape: a surviving block is kept as it is, so anything that
// can change under an unchanged key belongs in RefreshModel. A block's rows
// may reference other blocks' variables — a job's rate row spans every
// slot containing it — because RefreshModel rewrites all data-dependent
// coefficients and lp.Model setters no-op on unchanged values, keeping the
// delta class the solver sees exact. Layouts must enumerate blocks so
// survivors keep their relative order as members arrive and depart
// (member-order and canonical pair-order enumerations do); a layout that
// cannot is rebuilt fresh, never answered wrong.
//
// Per dirty sub-problem the engine then picks a sync path: build fresh (no
// model yet — the first round, or after MarkAllDirty — or block-key overlap
// < 0.5), or splice departed blocks out / new blocks in — the stored basis
// spliced in lockstep — and refresh the rest in place. A re-solve therefore
// pays pivots, not construction: rhs/bound-only deltas (capacity jitter
// under MinMakespan, lb tolerance shifts) ride the dual simplex from the
// previous basis; coefficient and objective deltas take the primal warm
// path; the lp solver owns correctness, falling back primal-warm then
// cold, so warm starts change solve speed, never solve outcomes.
//
// The sync itself allocates nothing in steady state and keeps nothing per
// sub-problem beyond the model and its block list. What it needs for the
// length of one sub-solve — the wanted layout, its index by block key, the
// position of every current block in it — is a syncScratch taken from a
// pool on the engine and put back when the sub-solve returns; the solo
// cluster adapter pools its refresh buffers (the members behind the layout,
// fetched from the job table once per sub-solve, and the bulk setter's
// arguments) the same way. Scratch is pooled rather than held in each sub
// for the reason lp recycles solver workspaces instead of keeping one per
// model: it is about 100 bytes per client, and an engine needs one per
// sub-solve in flight, not one per sub-problem. Adjacent departing blocks
// are cut out of the model in one RemoveConstraints/RemoveVariables pair
// (each walks the whole matrix), and the solo adapter's Extract writes a
// sub-problem's rows over its previous ones, re-indexing members only when
// they changed; ClusterEngine.Allocate copies rows out and computes
// effective throughputs from the jobs it has at hand, so nothing a caller
// holds is ever rewritten.
//
// # Warm-hostile refreshes
//
// Some refreshes leave nothing for a warm start to reuse — a total-scale or
// capacity shift under the fairness policies rotates every member's
// equal-share denominator at once. Earlier versions made each adapter
// declare these rounds through a WarmHostile hook backed by hand-tuned
// fingerprints; that hook is gone. lp.Model detects hostility itself from
// the actual incoming numbers, uniformly for every adapter, with no domain
// knowledge to keep in sync: after coefficient edits it drops the stale
// basis when a quarter or more of the constraint rows were rewritten (broad
// per-member churn — the pair layout's heavy-jitter rounds), or when a
// strided sample of nonbasic columns priced against the previous solve's
// duals shows a majority flipped (a global rotation, like the equal-share
// denominator shifts above, even when few entries changed).
//
// # Adding an adapter
//
// Pick the client granularity (the id the engine places), decide the block
// shape per client — fixed-width like cluster (r vars, 2 rows) and lb (2m
// vars, m+1 rows), or multi-block like space sharing — and put everything
// data-dependent behind RefreshModel. Write the LP's builder in the domain
// package, in that block layout, and have BuildModel call it; the batch
// solver then solves the same model. Wrap the engine with the domain's
// delta API the way lb.go does (Step diffs an instance into upsert / touch /
// remove, then solveRound), and give it a MarkAllDirty that calls
// markAllCold. The equivalence suites' pattern (a warm engine against a twin
// that calls MarkAllDirty before every round, 1e-6 objective agreement over
// randomized delta sequences) transfers unchanged and should be the first
// test written.
//
// # Engines
//
// ClusterEngine runs the §4.1 GPU-scheduling policies — max-min fairness
// and minimize-makespan on solo blocks, and the space-sharing policy (Fig
// 6) on the pair-block layout; its Policy method adapts it to gavelsim's
// round loop. LBEngine runs the §4.3 shard balancer on the continuous
// relaxation (the MILP's integer search cannot reuse a simplex basis; the
// relaxation is where the paper's round-over-round latency lives); its
// Solver method plugs into lb.RunRounds. Both have a MarkAllDirty that
// drops every model (and any restored basis), so the next round rebuilds
// and solves every sub-problem cold — the baseline the equivalence tests
// and BenchmarkOnlineRound hold the warm path to. Engine stats split each
// round into model build/mutation time and solver time (Stats.BuildNs /
// Stats.SolveNs) — the mutation path exists to shrink the former. Engines
// are not safe for concurrent use; callers like cmd/popserver serialize
// rounds themselves.
package online
