// Package lp implements a linear-programming solver sufficient for the
// resource-allocation formulations used throughout this repository: cluster
// scheduling (max-min fairness, makespan), traffic engineering (max total
// flow, max concurrent flow), and the LP relaxations used by the MILP
// branch-and-bound in package milp.
//
// The algorithm is a two-phase bounded-variable revised simplex:
//
//   - The model is standardized to  min cᵀx  s.t.  Ax = b,  l ≤ x ≤ u  by
//     appending one slack column per row (equality rows get a slack fixed to
//     [0,0] so the basis machinery stays uniform).
//   - Phase 1 starts from an all-artificial basis and minimizes the sum of
//     infeasibilities; phase 2 optimizes the real objective.
//   - The constraint matrix is stored column-wise and sparse; the basis is
//     maintained behind the basisFactor interface as a sparse LU
//     factorization, with a dense inverse as the numerical fallback (see
//     below).
//   - Pricing is Dantzig (most-negative reduced cost) with an automatic
//     switch to Bland's rule after a run of degenerate pivots, which
//     guarantees termination. An exact tie goes to the column with the
//     fewest nonzeros, then the lowest index: every path of a path LP
//     enters at reduced cost −1, and the sparsest is the shortest path,
//     the one that spends least capacity per unit of flow
//     (pop_lp_price_ties_total counts the choices the tie-break made). It
//     is a tie-break, not a scaling, so the max-min LPs' reduced costs,
//     which rank GPU types by rate, keep their order. The dual phase
//     prices its leaving rows with dual devex reference weights.
//   - Reduced costs are maintained, not recomputed per pivot. A basis change
//     in position r computes the pivot row αᵣ = ρᵀA, ρ = B⁻ᵀeᵣ, walking a
//     row-wise copy of A over the rows where ρ ≠ 0, and updates
//     d_j −= (d_q/w_r)·α_rj over the columns it touched (d_q becomes 0, the
//     leaving column's −d_q/w_r); a bound flip leaves d alone. Primal and dual
//     pivots share this one kernel: the dual ratio test reads its α row and
//     its ratios from it. Every d_j is re-priced from a fresh y = B⁻ᵀc_B on
//     entry to each primal phase (and each warm-repair pass), after every
//     refactorization, and before an Optimal or unbounded-ray verdict that
//     would otherwise rest on maintained values — a re-pricing that finds an
//     improving column overturns it. The dual start's feasibility test,
//     Solution.Dual/ReducedCost and Model's hostile-refresh sampler price
//     fresh, so no reported number and no verdict depends on maintained
//     values (pop_lp_price_refreshes_total, pop_lp_price_overturns_total;
//     TestMaintainedReducedCosts).
//   - The ratio tests — primal and dual — are Harris-style two-pass bounded
//     tests: the first pass finds the loosest step admissible with every
//     competing bound relaxed by the feasibility tolerance, the second takes
//     the largest-magnitude pivot that fits under it, trading a
//     tolerance-sized excursion for pivot quality on the degenerate chains
//     allocation LPs produce. Bland mode keeps the strict one-pass rule its
//     termination guarantee is proved for. The primal test also handles
//     variable bound flips, so boxed variables (the common case in
//     allocation problems, where 0 ≤ A ≤ 1) never enter the basis just to
//     move between their bounds.
//
// There is one solver configuration. Options carries tolerances, the
// iteration cap, the warm-start pair WarmBasis/Dual and Obs; nothing in it
// selects an algorithm, and TestOptionsSurface keeps it that way. There is
// no equilibration: every caller solves the model as built (a model whose
// coefficients span nine orders of magnitude is in the suite).
//
// # The basis factor and its fallback
//
// The basis is factorized as P·B·Q = L·U with left-looking sparse Gaussian
// elimination: columns are processed sparsest-first and the pivot row is
// chosen by threshold partial pivoting
// (candidates within 10× of the column's largest magnitude, preferring the
// row with the fewest nonzeros) — an approximate Markowitz ordering that
// keeps fill low on the extremely sparse bases granular allocation LPs
// produce. Each simplex pivot is then absorbed into the stored U in place
// with a Forrest–Tomlin update: the entering column becomes a spike, the
// spiked column rotates to the last triangular position, and the leaving
// row is eliminated by a recorded row transformation — so ftran/btran stay
// sparse triangular solves through factors whose size tracks actual fill,
// not pivot count. The spike is ftran's own partial result: ftranCol solves
// through L and the row etas, keeps that handle-space vector (which is U·w)
// for the update, then finishes with the U solve. A refactorization or an
// update spends it, and an update with none saved is refused, answered like
// an unstable one by a refactorization (TestSavedSpikeMatchesUw holds it to
// U·w formed explicitly).
//
// Refactorization is scheduled adaptively, on top of a fixed cadence of 512
// pivots: the factor is rebuilt when U's fill grows past a budget tied to
// its post-factorization size, or when a sampled
// ftran residual ‖B·w − a_q‖∞ drifts past tolerance — measured numerical
// trouble, caught before it can leak into pivot decisions. An update whose
// elimination multiplier or final diagonal is too extreme to absorb stably
// is rejected outright and answered with a refactorization from scratch.
// The update/reject/refactor-reason counters export through Options.Obs
// (pop_lp_ft_updates_total, pop_lp_ft_rejects_total,
// pop_lp_drift_refactors_total, pop_lp_fill_refactors_total), next to each
// refactorization's wall time (pop_lp_refactor_seconds, the lp.refactor
// span) and resulting fill (pop_lp_factor_nnz), and the pricing counters:
// full re-pricings of the maintained reduced costs
// (pop_lp_price_refreshes_total, far fewer than pivots) and verdicts a
// re-pricing overturned (pop_lp_price_overturns_total).
//
// The fallback is denseFactor: an explicit dense m×m basis inverse updated
// by rank-1 transformations and rebuilt by Gauss-Jordan elimination with
// partial pivoting. It is O(m²) per iteration and O(m³) per rebuild, but
// numerically transparent. No caller can select it; the solver reaches for
// it in two places. If the sparse factorization rejects an update pivot the
// solve refactorizes, and if a refactorization finds the basis singular the
// solve switches to the dense inverse for its remaining pivots
// (pop_lp_dense_fallbacks_total); and if a solve still ends in numerical
// failure, SolveWithOptions re-solves once from scratch on the dense
// inverse, cold (the lp.dense-retry instant). The same type is the tests'
// reference: through the unexported Options.dense the equivalence suite
// (equivalence_test.go) holds the sparse factor and the dense inverse to
// identical statuses and objectives within 1e-6 on fixture and randomized
// models. Bland's rule, the anti-cycling fallback above, is likewise forced
// from the first pivot by the unexported Options.blandOnly, and the refactor
// cadence shortened by Options.reinvertEvery, for tests only.
//
// # Refactorization
//
// luFactor.refactor rebuilds L and U from the basis columns in time
// proportional to nnz(B) + nnz(L) + nnz(U) plus the elimination flops (and
// a log factor from one heap and one small sort per column) — it never
// scans all m rows for one column. That matters because a refactorization
// is not rare: every warm re-solve installs its basis with one, and every
// branch-and-bound node starts from a fresh factor.
//
//   - Column order is a stable counting sort on column nonzero count
//     (sparsest first, ties by basis position).
//   - Column t is scattered into the row-space scratch x. Each row it
//     touches goes, once, onto one of two worklists: a row already pivoted
//     at step j puts j on a min-heap; an unpivoted row becomes a pivot
//     candidate.
//   - The left-looking sweep pops the heap. Step j's L column holds only
//     rows that were unpivoted at step j, so applying it can put a nonzero
//     only on the pivot row of a later step or on a candidate: everything
//     pushed while step j is applied is larger than j. Popping the minimum
//     therefore visits, in the same ascending order, exactly the steps a
//     dense j = 0..t-1 scan would have found nonzero, and performs the same
//     floating-point operations on the same operands — the factors are
//     identical bit for bit to those of the dense-scan routine this
//     replaced, which survives in refactor_ref_test.go as the oracle
//     (TestRefactorMatchesReference, FuzzRefactor). A row whose value
//     cancels to exactly zero before its step is popped is skipped, as the
//     dense scan skipped it.
//   - The pivot is chosen among the candidates by the threshold rule above,
//     ties broken by (static row count, smallest row index); the remaining
//     nonzero candidates, sorted by row, become L column t. The sort is
//     part of the result: btran accumulates along L columns in stored
//     order.
//
// Storage: all L and U columns of one factorization live back to back in
// one slab (U column t, then L column t, in elimination order), and the
// row-wise mirror of U that Forrest–Tomlin needs is counted, then filled,
// into a second slab. lcols/ucols/urows are capacity-clipped views into the
// slabs. L is frozen until the next refactor. A Forrest–Tomlin update edits
// U lists in place inside their views; a list that outgrows its view (a
// spike column longer than the column it replaces, a row that collects a
// spike entry) moves, at twice the capacity, into a per-factor update arena
// that the next refactor rewinds, so updates on a long-lived factor stop
// allocating once the arena has grown to one refactor interval's worth.
// Row-eta entries are appended to a buffer rewound the same way. The next
// refactor on the same factor reuses both slabs, the
// arena and all scratch, so it allocates nothing unless fill grew — and the
// factor lives in the solve's recycled workspace (see "What a re-solve
// reuses" below), so the next solve on that workspace does too.
//
// TestRefactorWorkLinear pins the cost model with a count of entries
// visited rather than a timing, at m ≈ 600, 2 400 and 9 600.
//
// # Warm starts
//
// Every optimal solve exports a combinatorial Basis snapshot
// (Solution.Basis); passing it back as Options.WarmBasis seeds a later
// solve of the same or a similar problem. The warm path rebuilds primal
// values from the snapshot (repairing the basic count if the shape drifted),
// refactorizes, and — when the stale basis is no longer primal feasible —
// runs a bound-shifting phase 1: out-of-bounds columns get their bounds
// temporarily relaxed to the interval between current value and violated
// bound plus a unit cost pushing them home, so ordinary phase-2 pivots
// restore feasibility without the all-artificial restart. A snapshot that
// is the wrong shape, singular, or unrepairable is silently discarded for a
// cold phase 1 (Solution.WarmStarted reports which path ran); warm starts
// therefore change solve speed, never solve outcomes. This is what the
// online engine (package online) leans on to re-solve drifting sub-problems
// round after round.
//
// # Persistent models: the Model lifecycle
//
// Problem is a one-shot builder: construct, standardize, solve, discard.
// Model is the persistent alternative for the mutate-and-resolve regime the
// online engines live in. Its lifecycle:
//
//  1. Build once, with the same builder API as Problem (NewModel, or
//     NewModelFromProblem to wrap an existing build).
//  2. Solve. The standardized equality form is built on first solve and
//     cached; the optimal basis is stored inside the model.
//  3. Mutate in place: SetCoeff / SetRHS / SetBounds / SetObjectiveCoeff
//     patch both the builder state and the cached standardized form
//     directly (no re-standardize), and all setters no-op on unchanged
//     values so the delta classification below stays exact. Structural
//     edits — AddVariable/AddConstraint and the block operations
//     InsertVariables / RemoveVariables / InsertConstraint /
//     RemoveConstraints — mark the standardized form for a lazy rebuild and
//     splice the stored basis statuses in lockstep, so surviving blocks
//     keep their warm information across membership changes.
//  4. Re-solve. The model classifies everything that happened since the
//     last optimal basis and picks the cheapest start that is still sound
//     (see the dual simplex section). Coefficient deltas first pass a
//     hostile-refresh check with two complementary signals: broad row churn
//     (a quarter or more of the constraint rows had coefficients rewritten,
//     so the repair cost approaches a cold start no matter what the reduced
//     costs say), and optimality rotation (a strided sample of nonbasic
//     columns priced against the previous solve's duals shows a majority
//     flipped — the signature of a global input rotation, like an
//     equal-share denominator shift, even when few entries changed). Either
//     drops the basis rather than pay a warm repair that costs more than
//     the cold phase 1 it replaces (booked as
//     pop_lp_warm_hostile_drops_total). Whatever path runs, the
//     outcome equals a cold solve of a fresh build of the current state —
//     the mutation-equivalence suite (model_test.go) holds mutate==rebuild
//     to 1e-6 over randomized delta chains.
//
// What a re-solve reuses, and what it rebuilds. A warm re-solve of a model
// that took a block splice pivots a handful of times, so everything else it
// does is kept proportional to that, not to the model:
//
//   - The standardized form. A structural edit (a block spliced in or out,
//     a coefficient fill-in) still means a full re-standardize, but that is
//     two passes over the builder rows with a per-variable stamp array —
//     no map — writing into the buffers of the form it replaces, which only
//     grow. The result is bit for bit what a fresh build gives
//     (FuzzStandardize holds it to the map-based routine it replaced, kept
//     in standardize_ref_test.go, over dirty destination buffers).
//   - The setters' scratch. SetCoeffs keeps per-variable and per-pair
//     arrays on the model; fill-ins are appended in argument order, so two
//     identical edit sequences leave identical models (CopyProblem,
//     WriteMPS bytes).
//   - The solver's working memory. Every solve — Problem or Model, cold or
//     warm, a branch-and-bound node or a served re-solve — takes one
//     workspace (status, x, cost, basis, y/w/rhs, the reduced costs and
//     pivot-row buffers with the row-wise copy of A, pricing weights, dual
//     candidate lists, and the sparse factor with its slabs, update arena,
//     saved spike and scratch) from a package-level free list when its
//     simplex is built and returns it once the Solution has been copied
//     out. The workspace
//     belongs to the solving goroutine, not to the model: k persistent
//     models cost k standardized forms but only as many workspaces as solve
//     at once. The list holds them by weak pointer, so a garbage collection
//     frees every workspace not in use: recycling adds nothing to what a
//     process keeps (sync.Pool would carry each workspace through one more
//     collection, which doubled the live heap of the batch TE path), and
//     costs one re-grown workspace per solving goroutine per GC cycle.
//     Each start strategy reshapes and clears the buffers it uses, so
//     nothing is trusted from the previous solve; the test suites run with
//     every released workspace overwritten with NaN and -1 to prove it
//     (TestMain here, the lp_poison build tag for other packages), and a
//     solve that panics leaves its workspace to the garbage collector
//     rather than recycle it half-written.
//   - The stored basis and shadow prices are overwritten in place.
//
// What is rebuilt every time: the factorization, and the row-wise copy of
// A the pivot rows are priced from. installBasis refactors the warm basis
// from scratch (O(fill), see "Refactorization") because a factorization
// does not survive a structural edit; keeping one alive across
// rhs/bound-only re-solves is open. The row-wise copy is built by a solve's
// first basis change (a re-solve that pivots zero times never builds it),
// O(nnz(A)) into the workspace's buffers, and like every pricing buffer
// (the reduced costs, ρ, the α row and its column list) it is derived
// afresh by each solve, never read from the last. The returned Solution
// (X, Dual, ReducedCost, Basis) is freshly allocated and belongs to the
// caller.
// TestWarmResolveAllocations pins the rest to a constant number of objects
// per re-solve.
//
// A Model is not safe for concurrent use, and there is no way to copy one:
// concurrent solves (POP's sub-problems) each build their own.
//
// Basis() and SetBasis() expose the stored snapshot for search-tree use:
// take the basis at one point, keep mutating and re-solving down one path,
// then jump back by re-installing the snapshot under different bounds. The
// branch and bound in package milp runs its whole tree this way — each open
// node carries its parent's snapshot, and bound-only branching keeps every
// node re-solve on the dual path below.
//
// # Dual simplex
//
// Perturbing only b, l, or u leaves reduced costs untouched, so the
// previous optimal basis stays dual feasible while its basic values drift
// out of bounds. The dual simplex phase (dual.go) exploits this: it
// repeatedly drives the most bound-violating basic variable out of the
// basis onto its violated bound, entering the nonbasic column whose
// reduced-cost ratio keeps every column dual feasible — typically settling
// a load or capacity shift in a handful of pivots where the primal warm
// path would run its bound-shifting repair phase and the cold path a full
// phase 1. Leaving rows are ranked violation²/weight under dual devex
// reference weights, and the entering column comes from the dual Harris
// two-pass ratio test described above.
//
// Entry conditions (all must hold, else the solve falls back to the primal
// warm path and then cold, so outcomes never change):
//
//   - Options.Dual is set alongside Options.WarmBasis. Model.Solve sets it
//     automatically when the deltas since the stored basis are rhs/bound
//     only; callers using Problem directly can set it by hand.
//   - The snapshot fits exactly: the model's shape, exactly m basic
//     columns (a count-repaired or block-spliced basis goes primal).
//   - The implied basis matrix factorizes, and the installed statuses
//     price dual feasible against the current objective.
//
// When the dual ratio test finds no column that can absorb the leaving
// row's violation, the row's ρ = B⁻ᵀeᵣ is a candidate Farkas ray, and the
// Infeasible verdict is certified rather than re-derived: certifyInfeasible
// recomputes a = ρᵀA column by column from the problem as posed, bounds
// Σ aⱼxⱼ over the bound box to [lo, hi], and accepts when ρᵀb lies outside
// it by more than 10·TolFeas·(‖ρ‖₁ + ‖a‖₁) (plus 1e-12 of the summed
// magnitudes). No point a cold phase 1 accepts — every row and bound met to
// TolFeas — can exist past that margin, so a certified verdict is the cold
// verdict, reached in the dual pivots already taken; the solve returns
// Infeasible with WarmStarted set and pop_lp_infeasible_certified_total
// booked. A ray that fails the check (an "uncertified" lp.dual span), the
// iteration limit, or numerical trouble resets and falls back as above.
// Solution.DualPivots reports the pivots the dual phase took.
//
// The solver reports primal values, row duals, reduced costs, and a status
// (Optimal, Infeasible, Unbounded, IterLimit, Numerical). It is deterministic:
// the same model always takes the same pivot sequence.
package lp
