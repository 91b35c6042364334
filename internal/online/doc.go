// Package online is the stateful incremental allocation engine: it keeps a
// POP-partitioned problem alive across scheduling rounds, accepts deltas
// (client arrive/depart, load change, resource capacity change), and
// re-solves only the sub-problems the deltas touched, each warm-started
// from its previous optimal basis. One engine, ClusterEngine, runs the §4.1
// GPU-scheduling policies round after round: max-min fairness and
// minimize-makespan on solo blocks, and space sharing (Fig 6) on pair
// blocks. It is the round-loop driver behind gavelsim's online policies and
// cmd/popserver. Traffic engineering (§4.2) is planned in batch by
// te.SolvePOP, and shard balancing (§4.3) by lb.SolvePOP over the exact
// MILP.
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
// A client's load is its job's Scale, read from the engine's job table.
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
// # Block layout
//
// The engine keeps one record per sub-problem: its members, load and dirty
// mark, a persistent lp.Model with the block sequence that model holds, and
// the last solve's allocation. A block is a keyed run of variables and rows:
// a key names the owning job ({id, cluster.NoPartner}) or job pair
// ({a, b}), and one job may own many blocks. The LP itself lives in package
// cluster, written once for the batch solver and the engine alike, so a
// K = 1 engine's first round is the batch solve. Two policy halves fill in
// what differs:
//
//   - solo (MaxMinFairness, MinMakespan): one block per member, in member
//     order — its r time-fraction variables, its time row and its rate row
//     (cluster.SoloModel's layout);
//   - pair (SpaceSharing): one block per cluster.Slots slot — a solo slot
//     per member in member order, then a shared slot per single-GPU pair in
//     canonical order; every slot holds r variables, a member's time and
//     rate rows live in its solo block, pair blocks carry no rows
//     (cluster.SpaceSharingModel's layout).
//
// Each half builds a sub-problem's model with the cluster builder, into a
// new model or one Reset for a rebuild, and reads a solution back in member
// order. The sub-problem's LP is written once, by the builder the batch
// policies use, and nothing else writes it.
//
// Every dirty sub-problem is rebuilt in place (lp.Model.Reset, then the
// builder); the engine only decides where the warm start comes from. When
// the wanted layout is the one the model holds (a load change, a capacity
// change), it leaves the basis Reset kept to the model, which compares the
// rebuilt rows with the ones they overwrite and classifies the delta: a
// capacity-only round rides the dual simplex from the previous basis, a
// data change takes the primal warm path. Otherwise — an arrival, a
// departure, a rebalance move, or no model yet (the first round, or after
// MarkAllDirty) — the basis is carried by key: while the two layouts share
// at least half their block keys, a block both hold with the same shape
// keeps its variable and slack statuses, a new block enters with its
// variables at the lower bound and its slacks basic, and the trailing
// shared region (the epigraph t, one capacity row per GPU type) keeps its
// statuses position by position (SetBasis). Below half, the rebuild starts
// cold (ForgetBasis), or from a restored basis. The engine makes that
// choice, not the model, because two solo layouts with equal member counts
// have one sparsity pattern: only the block keys tell a membership change
// from a value delta. The builder lays blocks out contiguously in layout
// order (block variables, then t; block rows, then the capacity rows), so a
// block's statuses are a run at an offset its layout gives. The carry needs
// no order check: member order and canonical pair order only append or
// drop, so survivors keep their relative order, and the carried statuses
// are exactly those that cutting departed blocks out of the old model and
// inserting the new ones would leave. A re-solve therefore pays pivots, not
// a cold start; the lp solver owns correctness, falling back primal-warm
// then cold, so warm starts change solve speed, never solve outcomes. An
// emptied sub-problem drops its model and its allocation.
//
// The sync allocates little in steady state and keeps nothing per
// sub-problem beyond the model and its block list. A rebuild reuses the
// model's rows and standardized form. What the sync needs for the length of
// one sub-solve — the wanted layout, its index by block key, the position
// of every current block in it, the carried statuses — is a syncScratch
// taken from a pool on the engine and put back when the sub-solve returns;
// the members behind a layout (fetched from the job table once per build
// or extract) are pooled the same way. Scratch is pooled rather than held per sub-problem
// for the reason lp recycles solver workspaces instead of keeping one per
// model: it is about 100 bytes per client, and an engine needs one per
// sub-solve in flight, not one per sub-problem. The solo half writes a
// sub-problem's rows over its previous ones, re-indexing members only when
// they changed; Allocate copies rows out and computes effective
// throughputs from the jobs it has at hand, so nothing a caller holds is
// ever rewritten.
//
// # Warm-hostile rebuilds
//
// Some same-layout rebuilds leave nothing for a warm start to reuse — a
// total-scale or capacity shift under the fairness policies rotates every
// member's equal-share denominator at once. lp.Model detects that itself
// from the actual incoming numbers, with no policy knowledge to keep in
// sync: after coefficient changes it drops the kept basis when a quarter or
// more of the constraint rows came back with other coefficients (broad
// per-member churn — the pair layout's heavy-jitter rounds), or when a
// strided sample of nonbasic columns priced against the previous solve's
// duals shows a majority flipped (a global rotation, like the equal-share
// denominator shifts above, even when few entries changed).
//
// # Cold rounds and stats
//
// MarkAllDirty drops every model (and any restored basis), so the next
// round rebuilds and solves every sub-problem cold — the baseline the
// equivalence tests (a warm engine against a twin that calls MarkAllDirty
// before every round, 1e-6 objective agreement over randomized delta
// sequences) and BenchmarkOnlineRound hold the warm path to.
// TestSameLayoutRoundKeepsSolveClass holds a same-layout round to its
// solve class. Engine stats split each round into model build time and
// solver time (Stats.BuildNs / Stats.SolveNs) — the in-place rebuild exists
// to shrink the former. Policy adapts the engine to gavelsim's round loop. The engine is
// not safe for concurrent use; callers like cmd/popserver serialize rounds
// themselves.
package online
