package lp

import (
	"fmt"
	"math"
	"slices"
)

// Model is a persistent linear program: build it once with the same
// builder API as Problem, solve it, then move bounds, or Reset it and build
// it again, and re-solve the delta. The model keeps its standardized form,
// rebuilding it at the next solve into the buffers of the form it replaces,
// keeps the last optimal basis, and classifies the deltas applied since
// that basis was taken:
//
//   - rhs/bound-only deltas re-solve with the dual simplex from the stale
//     basis (Options.Dual) — the basis is still dual feasible, so a few
//     dual pivots replace both the build and the primal repair;
//   - coefficient/objective deltas re-solve through the primal warm path;
//   - a basis installed by SetBasis after a build or a rebuild is a
//     structural delta and takes the primal warm path too.
//
// A rebuild after Reset classifies itself: it compares every variable and
// row it writes with the one at that position before Reset (see Reset).
// A held basis always fits the model's shape, or the next solve is cold:
// the solve drops a basis of another shape, whatever put it there. Every
// re-solve path falls back (primal warm, then cold) inside the solver, so a
// re-solve always returns the same status and objective as building the
// current state from scratch and solving cold — only faster. A Model is not
// safe for concurrent use.
type Model struct {
	p        *Problem
	std      *standardized
	stdDirty bool // std no longer matches p; rebuild at solve

	basis *Basis // last optimal basis or SetBasis's (model-owned copy)
	lastY []float64
	// lastY holds the shadow prices (original orientation, one per
	// constraint) from the solve that produced basis — the price sheet
	// warmHostile samples incoming coefficients against to decide whether
	// the basis is still worth a warm repair.

	// touched counts the rows rebuilds wrote with other coefficients since
	// basis was stored — warmHostile's churn-volume signal. Warm-repair cost
	// tracks how many rows moved under the basic columns, so broad row churn
	// marks the basis hostile regardless of reduced-cost signs.
	touched int

	// Delta classes applied since basis was taken. rhs/bound edits need no
	// flag: the dual path is eligible whenever neither of these is set.
	sinceCoeff  bool // A or c values changed
	sinceStruct bool // variables or constraints added/removed

	// A rebuild in progress, from Reset to SetBasis or the next solve:
	// Reset left oldVars variables and oldRows rows in the storage for the
	// rebuild to compare against.
	rebuilding       bool
	oldVars, oldRows int
}

// NewModel returns an empty mutable model with the given objective
// direction. The builder API (AddVariable, AddConstraint, ...) matches
// Problem's, so construction code ports by swapping NewProblem for
// NewModel.
func NewModel(objective Objective) *Model {
	return &Model{p: NewProblem(objective)}
}

// NewModelFromProblem wraps a deep copy of an existing Problem as a mutable
// model; the original is not retained and stays independently usable.
func NewModelFromProblem(p *Problem) *Model {
	return &Model{p: p.Clone()}
}

// CopyProblem returns a deep copy of the model's current builder state as a
// plain Problem — the "fresh build" twin the mutation-equivalence tests
// solve cold to cross-check mutate-then-resolve.
func (m *Model) CopyProblem() *Problem { return m.p.Clone() }

// NumVariables reports the number of variables currently in the model.
func (m *Model) NumVariables() int { return m.p.NumVariables() }

// NumConstraints reports the number of constraints currently in the model.
func (m *Model) NumConstraints() int { return m.p.NumConstraints() }

// HasBasis reports whether the next solve starts from a stored basis: one
// from a previous optimal solve, one SetBasis installed, or one Reset kept,
// provided it fits the model's current shape.
func (m *Model) HasBasis() bool { return m.basis != nil && m.fits() }

// fits reports whether the stored basis has the model's current shape.
func (m *Model) fits() bool {
	return len(m.basis.VarStatus) == m.p.NumVariables() && len(m.basis.SlackStatus) == m.p.NumConstraints()
}

// ForgetBasis discards the stored basis, forcing the next solve to start
// cold. Benchmark baselines and churn-heavy callers (where a stale basis
// loses to a fresh phase 1) use this; it never changes solve outcomes.
func (m *Model) ForgetBasis() {
	m.basis, m.lastY = nil, m.lastY[:0] // lastY keeps its array for the next solve
	m.touched = 0
}

// Basis returns a copy of the basis snapshot the next solve would
// warm-start from (the last optimal solve's basis, or whatever SetBasis
// installed), or nil when the model holds none. The copy is the caller's
// to keep or mutate; the model's own warm-start state cannot be reached
// through it.
func (m *Model) Basis() *Basis { return m.basis.Clone() }

// SetBasis installs a basis snapshot as the warm-start state for the next
// solve, replacing whatever the model currently holds (nil is ForgetBasis).
// This is the restore half of the search-tree pattern: take Solution.Basis
// (or Basis()) at one point, keep mutating and re-solving, then jump back by
// re-installing the snapshot — branch and bound uses it so a best-bound jump
// restarts from the popped node's parent basis instead of the last plunge's.
//
// The delta classification is untouched: the dual simplex path stays
// eligible only when no coefficient or structural edit happened since the
// model last stored a basis, which is exactly the bound-tightening-only
// regime of a branch-and-bound search. After a build, or after Reset, where
// SetBasis ends the rebuild, the snapshot counts as a structural delta. A
// snapshot of another shape than the model's is dropped at the solve, and
// one that fits but no longer suits the current state is rejected inside
// the solver (dual → primal warm → cold), so SetBasis never changes solve
// outcomes. The snapshot is cloned on install: the model never retains the
// caller's pointer, so one snapshot can be installed any number of times
// (branch and bound hands the same parent snapshot to both children) and
// later caller-side mutation of it cannot corrupt a solve.
func (m *Model) SetBasis(b *Basis) {
	m.basis = b.Clone()
	// The snapshot's shadow prices are unknown, so the hostile-refresh
	// sampler stays quiet until the next optimal solve records a fresh set.
	m.lastY = m.lastY[:0]
	if m.rebuilding {
		m.sinceStruct = true
		m.rebuilding = false
	}
}

// Reset empties the model for a rebuild: no variables and no constraints,
// with the objective direction and the basis kept. The row storage and the
// standardized form stay allocated, so building the next model in the same
// Model reuses them instead of allocating its rows and matrix afresh, and
// the rebuild classifies itself against them: AddVariable and
// AddConstraint compare each incoming variable and row with the one at its
// position before Reset. A rebuild that comes back in the kept basis's
// shape is a value delta on it — the dual simplex when only right-hand
// sides and bounds moved, the primal warm path (behind the hostile-refresh
// check) when coefficients, senses or objective coefficients did. A rebuild
// of another shape starts cold. A caller that knows better — a new layout
// whose old basis it can map, or one of the same shape whose variables mean
// something else, which the model cannot see — ends the rebuild with
// SetBasis (the primal warm path, as a structural delta) or ForgetBasis (a
// cold start).
func (m *Model) Reset() {
	m.oldVars, m.oldRows = m.p.NumVariables(), m.p.NumConstraints()
	m.p.reset()
	m.stdDirty = true
	m.rebuilding = true
}

// AddVariable appends a variable with objective coefficient c and bounds
// [lb, ub], returning its index.
func (m *Model) AddVariable(c, lb, ub float64, name string) int {
	j := m.p.NumVariables()
	if m.rebuilding && j < m.oldVars {
		// New bounds need no flag.
		if m.p.obj[:j+1][j] != c {
			m.sinceCoeff = true
		}
	} else {
		m.sinceStruct = true
	}
	m.p.AddVariable(c, lb, ub, name)
	m.stdDirty = true
	return j
}

// AddVariables appends n identical variables and returns the index of the
// first.
func (m *Model) AddVariables(n int, c, lb, ub float64) int {
	first := m.p.NumVariables()
	for i := 0; i < n; i++ {
		m.AddVariable(c, lb, ub, "")
	}
	return first
}

// AddConstraint appends the constraint Σ val[t]·x[idx[t]] sense rhs and
// returns its row index.
func (m *Model) AddConstraint(idx []int, val []float64, sense Sense, rhs float64, name string) int {
	i := m.p.NumConstraints()
	if m.rebuilding && i < m.oldRows {
		// A new right-hand side needs no flag.
		if old := m.p.rows[:i+1][i]; old.sense != sense || !slices.Equal(old.idx, idx) || !slices.Equal(old.val, val) {
			m.sinceCoeff = true
			m.touched++
		}
	} else {
		m.sinceStruct = true
	}
	m.p.AddConstraint(idx, val, sense, rhs, name)
	m.stdDirty = true
	return i
}

// SetBounds overwrites the bounds of variable v. A no-op when unchanged.
func (m *Model) SetBounds(v int, lb, ub float64) {
	if m.p.lb[v] == lb && m.p.ub[v] == ub {
		return
	}
	m.p.SetBounds(v, lb, ub)
	if m.std != nil && !m.stdDirty {
		m.std.lb[v] = lb
		m.std.ub[v] = ub
	}
}

// SolveWithOptions optimizes the model's current state. It first drops a
// held basis that does not fit the model's shape. When the model then holds
// a basis and the caller did not pass an explicit Options.WarmBasis, the
// solve is warm-started automatically: through the dual simplex when only
// rhs/bounds changed since that basis was taken, through the primal warm
// path otherwise. Outcomes are always those of a cold solve of the current
// state.
func (m *Model) SolveWithOptions(opts Options) (*Solution, error) {
	m.rebuilding = false
	if m.basis != nil && !m.fits() {
		m.ForgetBasis()
	}
	if m.p.NumVariables() == 0 {
		return nil, fmt.Errorf("lp: model has no variables")
	}
	if m.std == nil || m.stdDirty {
		m.std = m.p.standardizeObs(opts.Obs, m.std)
		m.stdDirty = false
	}
	if opts.WarmBasis == nil && m.basis != nil {
		if m.warmHostile() {
			// The coefficient deltas since the basis was taken rotated the
			// optimality picture wholesale: a sampled majority of nonbasic
			// columns now price in. Repairing that basis costs more pivots
			// than the fresh phase 1 it would replace, so drop it.
			opts.Obs.Instant("lp.warm-hostile", nil)
			opts.Obs.Counter("pop_lp_warm_hostile_drops_total",
				"stale bases dropped by the hostile-refresh sampler").Inc()
			m.ForgetBasis()
		} else {
			opts.WarmBasis = m.basis
			opts.Dual = !m.sinceCoeff && !m.sinceStruct
		}
	}
	sol := solveStd(m.std, opts)
	if opts.denseRetry(sol.Status) {
		sol = solveStd(m.std, opts)
	}
	if sol.Status == Optimal && sol.Basis != nil {
		// Keep a private copy: Solution.Basis belongs to the caller (node
		// snapshots in a branch-and-bound tree outlive many re-solves), and
		// the model overwrites its stored basis in place at the next optimal
		// solve — retaining the caller's pointer would let that corrupt the
		// caller's snapshot, and vice versa.
		if m.basis == nil {
			m.basis = &Basis{}
		}
		m.basis.VarStatus = append(m.basis.VarStatus[:0], sol.Basis.VarStatus...)
		m.basis.SlackStatus = append(m.basis.SlackStatus[:0], sol.Basis.SlackStatus...)
		m.lastY = append(m.lastY[:0], sol.Dual...)
		m.sinceCoeff = false
		m.sinceStruct = false
		m.touched = 0
	} else if sol.Status != Optimal {
		m.ForgetBasis()
	}
	return sol, nil
}

// warmHostile reports whether the coefficient edits applied since the stored
// basis was taken have made it warm-hostile: repairing the basis would cost
// more pivots than the cold phase 1 it replaces. Two complementary signals:
//
//   - Churn volume: a quarter or more of the constraint rows came back from
//     rebuilds with other coefficients. The repair cost scales with how
//     much of the matrix moved under the basic columns regardless of
//     reduced-cost signs.
//   - Optimality rotation: a strided sample of nonbasic structural columns
//     priced against the previous solve's shadow prices — d_j = c_j − yᵀa_j,
//     in the current standardized form — shows a majority of per-status
//     dual violations: the "every denominator rotated at once" signature of
//     a global input shift, even when few entries changed (e.g. an
//     objective-only rotation). A handful flipping is an
//     ordinary local delta the warm repair absorbs in a few pivots.
//
// The sampler replaces the per-adapter fingerprint heuristics the online
// engines used to hand-tune: it reads the actual incoming coefficients, so
// any caller's global rotation is caught without domain knowledge. Dropping
// a basis never changes solve outcomes, only which start the solver tries
// first, so false negatives and positives cost time, not correctness.
func (m *Model) warmHostile() bool {
	if !m.sinceCoeff || m.sinceStruct {
		// Only value-level coefficient deltas qualify: a structural delta
		// holds a basis SetBasis mapped onto the new layout, and rhs/bound
		// deltas never move reduced costs.
		return false
	}
	// Churn-volume signal: when a quarter or more of the constraint rows
	// had coefficients rewritten, the basic solution the snapshot implies
	// is wrong across much of the basis — repair cost tracks how many rows
	// moved under the basic columns, whether or not any reduced-cost signs
	// flipped, and at that churn the repair pivot chain approaches the cold
	// phase 1 it would replace. Broad per-member churn in the space-sharing
	// pair layout is the canonical case: most fairness and capacity rows
	// are rewritten, dual feasibility barely moves, and the warm repair
	// still loses to a cold start. The minimum count keeps small models on
	// the warm path: their repair is cheap enough that dropping never pays.
	if t := m.touched; t >= 8 && 4*t >= m.p.NumConstraints() {
		return true
	}
	std := m.std
	if len(m.lastY) != std.m {
		return false // SetBasis installed the basis: no shadow prices to sample against
	}
	const maxSample = 96
	stride := std.n / maxSample
	if stride < 1 {
		stride = 1
	}
	sampled, viol := 0, 0
	for j := 0; j < std.n && sampled < maxSample; j += stride {
		st := m.basis.VarStatus[j]
		if st == BasisBasic || std.lb[j] == std.ub[j] {
			continue
		}
		// std.c is in internal (minimize) orientation; lastY is original
		// orientation, so objSign converts it.
		d := std.c[j]
		ind, val := std.col(j)
		for t, i := range ind {
			d -= std.objSign * m.lastY[i] * val[t]
		}
		sampled++
		tol := 1e-6 * (1 + math.Abs(std.c[j]))
		switch st {
		case BasisLower:
			if d < -tol {
				viol++
			}
		case BasisUpper:
			if d > tol {
				viol++
			}
		default: // BasisFree
			if math.Abs(d) > tol {
				viol++
			}
		}
	}
	return sampled >= 8 && 2*viol >= sampled
}
