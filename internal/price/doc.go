// Package price implements a solver-free price-discovery allocator — the
// dual-decomposition scheme of "Allocation of Fungible Resources via a
// Fast, Scalable Price Discovery Method" (Agrawal, Boyd, Narayanan,
// Kazhamiaka, Zaharia) — as a second engine beside the LP/POP path: per-
// resource prices, independent per-client best responses, and iterative
// price updates replace the simplex entirely. Best responses are closed
// forms evaluated independently per client, so the inner loop is
// embarrassingly parallel and scales to millions of clients per round.
//
// The package serves two markets over the same GPU pool, and Solve itself
// runs over any Domain:
//
//   - max-min GPU scheduling, approximated by an alpha-fair utility over
//     normalized throughput ratios (SolveMaxMin for one solve,
//     ClusterEngine across rounds — the market popserver serves);
//   - proportional fairness (§4.1, Σ_j w_j·log(thr_j) over raw
//     throughputs; SolvePropFair, Figure 7's solver).
//
// Both return through the same feasibility projection. They differ in
// three per-market constants: the price step (α/12 against ½), the
// clearing tolerance (1% against 1e-5), and the common-mode rescale, which
// only max-min gets.
//
// # Price update rule
//
// Each iteration t computes every client's exact best response under the
// current prices (fanned out over core.ParallelMap in fixed 1024-client
// chunks whose partial demands reduce in chunk order, so results are
// bit-identical serial or parallel), then moves each price against its
// relative excess demand multiplicatively:
//
//	p_i ← clamp(p_i · exp(η_t · clip((demand_i − cap_i)/cap_i, ±1)))
//
// with a diminishing step η_t = step/√(t0+t). Multiplicative updates keep
// prices positive and let them traverse orders of magnitude in few
// iterations — necessary because low-elasticity utilities (the alpha-fair
// max-min approximation, exponent α = 32, whose step is α/12 where a
// unit-elasticity market would use ½, holding the effective price motion
// constant) need large price swings to move demand: at
// equilibrium their marginal utilities scale as u^-α, so clearing prices
// legitimately sit many orders of magnitude above the demand-seeded cold
// start. Prices are therefore clamped to a deliberately vast [1e-18, 1e18]×
// band around that scale — a tight ceiling silently caps the walk and
// freezes the residual.
//
// Domains with a known aggregate elasticity (the max-min market: interior
// alpha-fair demand scales as p^(−1/α)) additionally get a common-mode
// damped Newton rescale each iteration:
// the whole price vector is multiplied by exp(½·E·mean(log(demand/cap))),
// with the underdemand side of the mean weighted by price/(price+p0) as
// in the clearing residual. A uniform rescale leaves relative prices —
// and therefore every client's resource choice — unchanged, so unlike the
// per-resource step it cannot set off choice-flipping oscillation and may
// safely move orders of magnitude at once. It carries both the cold
// start's climb to the clearing scale (~5× fewer iterations) and a warm
// round's uniform demand drift (e.g. weight growth on surviving clients),
// leaving the small per-resource steps only the relative imbalance.
//
// The proportional-fairness market exposes no elasticity, though its
// interior log-utility demand scales exactly as p^(−1): it clears within
// a few hundred plain steps, and the rescale only hurts it. With E = 1 on
// Figure 7's instances no solve reaches the clearing tolerance — the exact
// solve and every POP-2/4/8 sub-solve stop at the iteration cap — and Σ
// log utility falls from 140.51 to 140.14 exact and to 136.58 at POP-8 on
// 200 jobs.
//
// Primal iterates fold into a polynomially weighted running average
// (iterate t gets weight ∝ t^8), so late, well-priced responses dominate
// and the cold-start transient is forgotten quickly; the averaged demands
// are the allocation. The market finishes with a cheap feasibility
// projection (capacity-column scaling), so reported allocations are always
// feasible and quality gaps show up in the objective, never as constraint
// violations.
//
// # Clearing tolerance
//
// Convergence is declared when the averaged market's complementarity
// residual falls below the market's tolerance: the worst relative
// overdemand, or on underdemanded resources the relative idle capacity
// weighted by price/(price+p0) — idle capacity only violates clearing
// while its price remains meaningfully above the cold-start scale p0.
// Max-min stops at 1% (clearTol). Proportional fairness stops at 1e-5
// (propFairTol): its objective sums a log over every job, and at 1% the
// exact Figure 7 solve on 1 000 jobs stops after 18 iterations at Σ log
// utility 605.5 against 623.7 at 1e-5. Solves that exhaust MaxIters
// (default 1200) return the residual with Converged=false; nothing is
// hidden — Figure 7's notes count them per row.
//
// # Warm-start contract
//
// Solution.Price from one solve may be passed as Options.WarmPrice to a
// later solve of a similar market. A warm start changes the starting
// point and the step schedule (t0 = 100, so corrective steps start small
// enough not to kick near-equilibrium prices into oscillation),
// never the clearing criterion: warm and cold runs converge to the same
// tolerance against the same market, differing only in iterations spent.
// A WarmPrice of the wrong shape or with non-positive entries is ignored
// (cold start), never an error. ClusterEngine carries prices across
// rounds automatically and drops them — mirroring lp.Model's warm-hostile
// basis drop — when membership churn (arrivals + departures, relative to
// the client count) reaches coldChurnFrac (¼); capacity changes rescale
// carried prices instead of dropping them. Data
// jitter on surviving clients never drops prices: absorbing it is the
// warm start's job, and on low-churn rounds warm prices cut
// iterations-to-clearing by an order of magnitude.
//
// # Held state across rounds
//
// ClusterEngine keeps its clients in a persistent ascending-ID table
// (cluster.Table) and keeps the market domain — every client's
// price-independent constants: normalized throughputs and the powers and
// roots of them the alpha-fair best response needs — aligned with it.
// Upsert and Remove edit the table; a round (Allocate) commits the edits
// with block moves mirrored onto the domain's arrays, recomputes the
// constants of exactly the rows that are new or changed, and solves. Step
// is the same round behind a diff of the caller's active set. Nothing is
// sorted, re-diffed, or rebuilt per round, so the work outside the solver
// is O(churn).
//
// The one thing tying a client's constants to the rest of the population
// is the max-min normaliser: throughputs are divided by the client's
// equal-share throughput, and the equal-share row is capacity over the
// total scale Σz — which moves whenever anyone arrives or leaves, every
// round on a shard worker. It only ever moves along one direction,
// though, so constants are stored against a reference row — the equal
// share of Σz rounded up to a power of two — and the scalar between the
// reference and the true row (in (½, 1]) is folded into the per-iteration
// price roots, a handful of multiplies per solve. The invalidation rule is
// therefore: a row is recomputed when its own job changes; every row is
// recomputed when the pool changes or Σz crosses a power of two; nothing
// else invalidates anything. Because the reference depends only on the
// current population, never on history, an engine restored from a
// snapshot, one driven by Step, and one driven by Upsert/Remove/Allocate
// produce bit-identical allocations from the same state.
//
// # Determinism
//
// Given identical inputs, Options.Seed, and WarmPrice, Solve's output is
// bit-identical regardless of Options.Parallel or GOMAXPROCS: chunked
// reduction fixes the summation order, cold-start jitter derives from the
// seed, and best responses are pure functions.
package price
