package lp

import (
	"fmt"
	"math"
)

// Model is a persistent, mutable linear program: build it once with the
// same builder API as Problem, solve it, then mutate coefficients, bounds
// or right-hand sides in place, append variables and constraints, or Reset
// it and build it again, and re-solve the delta. The model maintains its
// standardized form incrementally (numeric edits patch the sparse matrix
// directly; structural edits rebuild it lazily at the next solve, into the
// buffers of the form it replaces), keeps the last optimal basis, and
// classifies the deltas applied since that basis was taken:
//
//   - rhs/bound-only deltas re-solve with the dual simplex from the stale
//     basis (Options.Dual) — the basis is still dual feasible, so a few
//     dual pivots replace both the build and the primal repair;
//   - coefficient/objective deltas re-solve through the primal warm path;
//   - structural deltas (appends, or a rebuild after Reset with a basis
//     installed by SetBasis) take the primal warm path too, and the
//     solver's shape repair settles whatever the basis no longer fits.
//
// Every re-solve path falls back (primal warm, then cold) inside the
// solver, so mutate-then-resolve always returns the same status and
// objective as building the current state from scratch and solving cold —
// only faster. A Model is not safe for concurrent use.
type Model struct {
	p        *Problem
	std      *standardized
	stdDirty bool // std no longer matches p structurally; rebuild at solve

	basis *Basis // last optimal basis (model-owned copy), extended across appends
	lastY []float64
	// lastY holds the shadow prices (original orientation, one per
	// constraint) from the solve that produced basis — the price sheet
	// warmHostile samples incoming coefficients against to decide whether
	// the basis is still worth a warm repair.

	// touchedRow flags the constraint rows with at least one matrix
	// coefficient whose value actually changed since basis was stored, and
	// touched counts them — warmHostile's churn-volume signal. Warm-repair
	// cost tracks how many rows moved under the basic columns, so broad row
	// churn marks the basis hostile regardless of reduced-cost signs. A
	// structural edit shifts rows under the flags, but warmHostile only reads
	// the count when none happened since the basis was stored.
	touchedRow []bool
	touched    int

	// Delta classes applied since basis was taken. rhs/bound edits need no
	// flag: the dual path is eligible whenever neither of these is set.
	sinceCoeff  bool // A or c values changed
	sinceStruct bool // variables or constraints added/removed

	// SetCoeffs scratch, reused across calls (a Model is single-threaded).
	// scSlot is per variable and all zero between calls: 1 + the index of
	// the last (idx, val) pair naming the variable. scFirst and scCur are per
	// pair: the variable's first position in the row (-1 when absent) and
	// its merged current coefficient.
	scSlot  []int32
	scFirst []int32
	scCur   []float64
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

// NumNonzeros reports the number of stored constraint coefficients.
func (m *Model) NumNonzeros() int { return m.p.NumNonzeros() }

// ObjectiveSense returns the optimization direction chosen at construction.
func (m *Model) ObjectiveSense() Objective { return m.p.ObjectiveSense() }

// Bounds returns the current bounds of variable v.
func (m *Model) Bounds(v int) (lb, ub float64) { return m.p.Bounds(v) }

// Value evaluates the objective at x in the model's own orientation.
func (m *Model) Value(x []float64) float64 { return m.p.Value(x) }

// CheckFeasible verifies that x satisfies all bounds and constraints
// within tol.
func (m *Model) CheckFeasible(x []float64, tol float64) error { return m.p.CheckFeasible(x, tol) }

// HasBasis reports whether the model holds a basis from a previous optimal
// solve to warm-start the next one.
func (m *Model) HasBasis() bool { return m.basis != nil }

// ForgetBasis discards the stored basis, forcing the next solve to start
// cold. Benchmark baselines and churn-heavy callers (where a stale basis
// loses to a fresh phase 1) use this; it never changes solve outcomes.
func (m *Model) ForgetBasis() {
	m.basis, m.lastY = nil, m.lastY[:0] // lastY keeps its array for the next solve
	m.resetTouched()
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
// regime of a branch-and-bound search. A snapshot that turns out not to fit
// the current state is rejected inside the solver (dual → primal warm →
// cold), so SetBasis never changes solve outcomes. The snapshot is cloned
// on install: the model never retains the caller's pointer, so one
// snapshot can be installed any number of times (branch and bound hands
// the same parent snapshot to both children) and later caller-side
// mutation of it cannot corrupt a solve.
func (m *Model) SetBasis(b *Basis) {
	m.basis = b.Clone()
	// The snapshot's shadow prices are unknown, so the hostile-refresh
	// sampler stays quiet until the next optimal solve records a fresh set.
	m.lastY = m.lastY[:0]
}

// Reset empties the model for a rebuild: no variables, no constraints and
// no basis, with the objective direction kept. The row storage and the
// standardized form stay allocated, so building the next model in the same
// Model reuses them instead of allocating its rows and matrix afresh. A
// rebuild that wants a warm start installs a basis for its new shape with
// SetBasis; the solve then takes the primal warm path, since a structural
// edit happened since any basis was stored.
func (m *Model) Reset() {
	m.p.reset()
	m.structEdit()
	m.ForgetBasis()
}

// AddVariable appends a variable with objective coefficient c and bounds
// [lb, ub], returning its index.
func (m *Model) AddVariable(c, lb, ub float64, name string) int {
	v := m.p.AddVariable(c, lb, ub, name)
	m.structEdit()
	if m.basis != nil {
		m.basis.VarStatus = append(m.basis.VarStatus, BasisLower)
	}
	return v
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
	r := m.p.AddConstraint(idx, val, sense, rhs, name)
	m.structEdit()
	if m.basis != nil {
		m.basis.SlackStatus = append(m.basis.SlackStatus, BasisBasic)
	}
	return r
}

// SetObjectiveCoeff overwrites the objective coefficient of variable v.
// A no-op when the value is unchanged.
func (m *Model) SetObjectiveCoeff(v int, c float64) {
	if m.p.obj[v] == c {
		return
	}
	if math.IsNaN(c) || math.IsInf(c, 0) {
		panic(fmt.Sprintf("lp: variable %d: non-finite objective coefficient %g", v, c))
	}
	m.p.obj[v] = c
	if m.freshStd() {
		m.std.c[v] = m.std.objSign * c
	}
	m.sinceCoeff = true
}

// SetBounds overwrites the bounds of variable v. A no-op when unchanged.
func (m *Model) SetBounds(v int, lb, ub float64) {
	if m.p.lb[v] == lb && m.p.ub[v] == ub {
		return
	}
	m.p.SetBounds(v, lb, ub)
	if m.freshStd() {
		m.std.lb[v] = lb
		m.std.ub[v] = ub
	}
}

// SetRHS overwrites the right-hand side of constraint `row`. A no-op when
// unchanged.
func (m *Model) SetRHS(row int, rhs float64) {
	if m.p.rows[row].rhs == rhs {
		return
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		panic(fmt.Sprintf("lp: row %d: non-finite rhs %g", row, rhs))
	}
	m.p.rows[row].rhs = rhs
	if m.freshStd() {
		m.std.b[row] = rhs
	}
}

// SetCoeff overwrites the coefficient of variable v in constraint `row`
// (the merged total, if the row was built with duplicate indices). Setting
// a coefficient the row does not yet store is a structural fill-in: the
// standardized form is rebuilt at the next solve, but the basis — whose
// shape is unchanged — still warm-starts it. A no-op when unchanged.
func (m *Model) SetCoeff(row, v int, coef float64) {
	if math.IsNaN(coef) || math.IsInf(coef, 0) {
		panic(fmt.Sprintf("lp: row %d: non-finite coefficient %g for variable %d", row, coef, v))
	}
	if v < 0 || v >= m.p.NumVariables() {
		panic(fmt.Sprintf("lp: row %d references unknown variable %d", row, v))
	}
	r := &m.p.rows[row]
	first, cur := -1, 0.0
	for t, id := range r.idx {
		if id == v {
			if first < 0 {
				first = t
			}
			cur += r.val[t]
		}
	}
	if first < 0 {
		if coef == 0 {
			return
		}
		r.idx = append(r.idx, v)
		r.val = append(r.val, coef)
		m.p.nnz++
		m.stdDirty = true
		m.sinceCoeff = true
		m.touchRow(row)
		return
	}
	if cur == coef {
		return
	}
	r.val[first] = coef
	for t := first + 1; t < len(r.idx); t++ {
		if r.idx[t] == v {
			r.val[t] = 0
		}
	}
	if m.freshStd() {
		m.std.setEntry(row, v, coef)
	}
	m.sinceCoeff = true
	m.touchRow(row)
}

// SetCoeffs overwrites the coefficients of several variables in constraint
// `row` in one pass over the row — semantically identical to calling
// SetCoeff once per (idx[t], val[t]) pair, but O(row length + len(idx))
// instead of a full row scan per entry, which keeps the engines' refresh of
// shared rows (one entry per client) linear in the client count. Duplicate
// indices in idx: the last pair wins.
func (m *Model) SetCoeffs(row int, idx []int, val []float64) {
	if len(idx) != len(val) {
		panic(fmt.Sprintf("lp: SetCoeffs row %d: len(idx)=%d len(val)=%d", row, len(idx), len(val)))
	}
	// Small updates: the per-entry row scans beat the map machinery's
	// constant; the one-pass path below is for rows wide enough that
	// quadratic scanning would bite.
	if len(idx) <= 32 {
		for t, v := range idx {
			m.SetCoeff(row, v, val[t])
		}
		return
	}
	nv := m.p.NumVariables()
	for t, v := range idx {
		if v < 0 || v >= nv {
			panic(fmt.Sprintf("lp: row %d references unknown variable %d", row, v))
		}
		if math.IsNaN(val[t]) || math.IsInf(val[t], 0) {
			panic(fmt.Sprintf("lp: row %d: non-finite coefficient %g for variable %d", row, val[t], v))
		}
	}
	if len(m.scSlot) < nv {
		m.scSlot = make([]int32, nv)
	}
	slot := m.scSlot
	first, cur := sized(m.scFirst, len(idx)), sized(m.scCur, len(idx))
	m.scFirst, m.scCur = first, cur
	for t, v := range idx {
		slot[v] = int32(t + 1) // a later pair for the same variable overwrites
		first[t], cur[t] = -1, 0
	}
	r := &m.p.rows[row]
	// Pass 1: merged current value and first position of every targeted
	// variable present in the row.
	for t, id := range r.idx {
		k := int(slot[id]) - 1
		if k < 0 {
			continue
		}
		if first[k] < 0 {
			first[k] = int32(t)
		}
		cur[k] += r.val[t]
	}
	// A refresh that changes nothing leaves the delta class alone, so the
	// dual path stays eligible.
	changed := false
	for t, v := range idx {
		if int(slot[v]) != t+1 {
			continue // superseded by a later pair
		}
		if (first[t] >= 0 && cur[t] != val[t]) || (first[t] < 0 && val[t] != 0) {
			changed = true
			break
		}
	}
	if changed {
		fresh := m.freshStd()
		// Pass 2: first occurrence carries the value, duplicate occurrences
		// are zeroed, absent nonzeros append as fill-ins in idx order.
		for t, id := range r.idx {
			k := int(slot[id]) - 1
			if k < 0 || cur[k] == val[k] {
				continue
			}
			if t == int(first[k]) {
				r.val[t] = val[k]
			} else {
				r.val[t] = 0
			}
		}
		for t, v := range idx {
			switch {
			case int(slot[v]) != t+1:
			case first[t] >= 0:
				if cur[t] != val[t] && fresh {
					m.std.setEntry(row, v, val[t])
				}
			case val[t] != 0:
				r.idx = append(r.idx, v)
				r.val = append(r.val, val[t])
				m.p.nnz++
				m.stdDirty = true
			}
		}
		m.sinceCoeff = true
		m.touchRow(row)
	}
	for _, v := range idx {
		slot[v] = 0
	}
}

// touchRow books a value-level coefficient change in a constraint row for
// warmHostile's churn-volume signal. Only meaningful while a basis is
// stored; the flags reset whenever a new basis is taken or forgotten.
func (m *Model) touchRow(row int) {
	if m.basis == nil {
		return
	}
	if row >= len(m.touchedRow) {
		m.touchedRow = append(m.touchedRow, make([]bool, m.p.NumConstraints()-len(m.touchedRow))...)
	}
	if !m.touchedRow[row] {
		m.touchedRow[row] = true
		m.touched++
	}
}

func (m *Model) resetTouched() {
	clear(m.touchedRow)
	m.touched = 0
}

// structEdit books a structural change: the standardized form must be
// rebuilt and the stored basis, though extended to the new shape, is no
// longer dual-trustworthy.
func (m *Model) structEdit() {
	m.stdDirty = true
	m.sinceStruct = true
}

// freshStd reports whether the cached standardized form is live and can be
// patched in place.
func (m *Model) freshStd() bool { return m.std != nil && !m.stdDirty }

// setEntry overwrites the merged coefficient of (row, structural column v),
// which is known to exist. Row indices are ascending within a column, so a
// binary search lands on it.
func (s *standardized) setEntry(row, v int, coef float64) {
	lo, hi := int(s.colPtr[v]), int(s.colPtr[v+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if int(s.rowInd[mid]) < row {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= int(s.colPtr[v+1]) || int(s.rowInd[lo]) != row {
		// The builder row stores the entry but the CSC predates it — should
		// be unreachable (fill-ins set stdDirty); rebuild defensively.
		panic(fmt.Sprintf("lp: standardized form missing entry (%d, %d)", row, v))
	}
	s.values[lo] = coef
}

// Solve optimizes the model with default options.
func (m *Model) Solve() (*Solution, error) {
	return m.SolveWithOptions(Options{})
}

// SolveWithOptions optimizes the model's current state. When the model
// holds a basis from a previous optimal solve and the caller did not pass
// an explicit Options.WarmBasis, the solve is warm-started automatically:
// through the dual simplex when only rhs/bounds changed since that basis
// was taken, through the primal warm path otherwise. Outcomes are always
// those of a cold solve of the current state.
func (m *Model) SolveWithOptions(opts Options) (*Solution, error) {
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
		// the model's appends extend its stored basis in place — retaining
		// the caller's pointer would let those edits corrupt the caller's
		// snapshot, and vice versa.
		if m.basis == nil {
			m.basis = &Basis{}
		}
		m.basis.VarStatus = append(m.basis.VarStatus[:0], sol.Basis.VarStatus...)
		m.basis.SlackStatus = append(m.basis.SlackStatus[:0], sol.Basis.SlackStatus...)
		m.lastY = append(m.lastY[:0], sol.Dual...)
		m.sinceCoeff = false
		m.sinceStruct = false
		m.resetTouched()
	} else if sol.Status != Optimal {
		m.ForgetBasis()
	}
	return sol, nil
}

// warmHostile reports whether the coefficient edits applied since the stored
// basis was taken have made it warm-hostile: repairing the basis would cost
// more pivots than the cold phase 1 it replaces. Two complementary signals:
//
//   - Churn volume: a quarter or more of the constraint rows had
//     coefficients rewritten. The repair cost scales with how much of the
//     matrix moved under the basic columns regardless of reduced-cost signs.
//   - Optimality rotation: a strided sample of nonbasic structural columns
//     priced against the previous solve's shadow prices — d_j = c_j − yᵀa_j,
//     all in the current (already-patched) standardized form — shows a
//     majority of per-status dual violations: the "every denominator rotated
//     at once" signature of a global input shift, even when few entries
//     changed (e.g. an objective-only rotation). A handful flipping is an
//     ordinary local delta the warm repair absorbs in a few pivots.
//
// The sampler replaces the per-adapter fingerprint heuristics the online
// engines used to hand-tune: it reads the actual incoming coefficients, so
// any caller's global rotation is caught without domain knowledge. Dropping
// a basis never changes solve outcomes, only which start the solver tries
// first, so false negatives and positives cost time, not correctness.
func (m *Model) warmHostile() bool {
	if !m.sinceCoeff || m.sinceStruct || m.stdDirty {
		// Only value-level coefficient deltas qualify: structural edits
		// already route to shape repair, and rhs/bound deltas never move
		// reduced costs.
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
	if len(m.lastY) != std.m || len(m.basis.VarStatus) != std.n {
		return false
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
