package lp

import (
	"fmt"
	"math"
	"slices"
)

// Model is a persistent, mutable linear program: build it once with the
// same builder API as Problem, solve it, then mutate coefficients, bounds,
// right-hand sides, or whole variable/constraint blocks in place and
// re-solve the delta. The model maintains its standardized form
// incrementally (numeric edits patch the sparse matrix directly; structural
// edits rebuild it lazily at the next solve, into the buffers of the form it
// replaces), keeps the last optimal basis,
// and classifies the deltas applied since that basis was taken:
//
//   - rhs/bound-only deltas re-solve with the dual simplex from the stale
//     basis (Options.Dual) — the basis is still dual feasible, so a few
//     dual pivots replace both the build and the primal repair;
//   - coefficient/objective deltas re-solve through the primal warm path;
//   - structural deltas (blocks added or removed) splice the stale basis
//     statuses in lockstep, so survivors keep their warm information and
//     the solver's shape-repair settles the rest.
//
// Every re-solve path falls back (primal warm, then cold) inside the
// solver, so mutate-then-resolve always returns the same status and
// objective as building the current state from scratch and solving cold —
// only faster. A Model is not safe for concurrent use; Clone gives each
// goroutine its own cheap copy (mutable state is copied, the coefficient
// matrix is shared copy-on-write) for fan-out.
type Model struct {
	p        *Problem
	std      *standardized
	stdDirty bool // std no longer matches p structurally; rebuild at solve

	// sharedMatrix marks the coefficient arrays (builder row idx/val and the
	// standardized CSC) as shared with other clones: they may be read by any
	// clone concurrently but must be copied (ensureOwnedMatrix) before this
	// model writes to them. Bounds, rhs, objective, and basis state are
	// always private to one model.
	sharedMatrix bool

	basis *Basis // last optimal basis (model-owned copy), spliced across structural edits
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

// Clone returns an independent model over the same current state, built for
// fan-out: per-model mutable state (bounds, objective, rhs, basis, delta
// bookkeeping, and the standardized bound/cost/rhs vectors the solver
// shifts during warm repair) is copied, while the coefficient matrix — the
// builder rows' index/value arrays and the standardized CSC structure, by
// far the bulk of a model — is shared between the clones. The share is
// copy-on-write: the first coefficient or structural edit on either model
// materializes a private copy, so clones never observe each other's edits.
//
// A cloned model re-solves exactly like the original (same standardized
// cache, same warm basis), which is what the parallel branch-and-bound
// leans on: one clone per worker, each applying its own bound deltas and
// basis snapshots concurrently. Each clone is still single-threaded; the
// only safe concurrency is different goroutines using different clones.
func (m *Model) Clone() *Model {
	q := &Model{
		p: &Problem{
			objective: m.p.objective,
			obj:       append([]float64(nil), m.p.obj...),
			lb:        append([]float64(nil), m.p.lb...),
			ub:        append([]float64(nil), m.p.ub...),
			varNames:  append([]string(nil), m.p.varNames...),
			rows:      append([]row(nil), m.p.rows...),
			rowNames:  append([]string(nil), m.p.rowNames...),
			nnz:       m.p.nnz,
		},
		stdDirty:    m.stdDirty,
		basis:       m.basis.Clone(),
		lastY:       append([]float64(nil), m.lastY...),
		touchedRow:  append([]bool(nil), m.touchedRow...),
		touched:     m.touched,
		sinceCoeff:  m.sinceCoeff,
		sinceStruct: m.sinceStruct,
	}
	if m.std != nil {
		std := *m.std
		std.c = append([]float64(nil), m.std.c...)
		std.lb = append([]float64(nil), m.std.lb...)
		std.ub = append([]float64(nil), m.std.ub...)
		std.b = append([]float64(nil), m.std.b...)
		std.stamp = nil
		q.std = &std
	}
	m.sharedMatrix = true
	q.sharedMatrix = true
	return q
}

// ensureOwnedMatrix materializes a private copy of the coefficient arrays
// shared with other clones. Called before any write to builder row idx/val
// storage or the standardized CSC; a no-op for a model that already owns
// its matrix.
func (m *Model) ensureOwnedMatrix() {
	if !m.sharedMatrix {
		return
	}
	m.sharedMatrix = false
	for i := range m.p.rows {
		r := &m.p.rows[i]
		r.idx = append([]int(nil), r.idx...)
		r.val = append([]float64(nil), r.val...)
	}
	if m.std != nil {
		m.std.colPtr = append([]int32(nil), m.std.colPtr...)
		m.std.rowInd = append([]int32(nil), m.std.rowInd...)
		m.std.values = append([]float64(nil), m.std.values...)
	}
}

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

// RHS returns the current right-hand side of constraint `row`.
func (m *Model) RHS(row int) float64 { return m.p.rows[row].rhs }

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
	m.basis, m.lastY = nil, nil
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
// snapshot can be installed into any number of models (the parallel
// search's workers install the same parent snapshot concurrently) and
// later caller-side mutation of it cannot corrupt a solve.
func (m *Model) SetBasis(b *Basis) {
	m.basis = b.Clone()
	// The snapshot's shadow prices are unknown, so the hostile-refresh
	// sampler stays quiet until the next optimal solve records a fresh set.
	m.lastY = nil
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

// InsertVariables inserts n identical variables at index `at`, shifting
// every variable previously at index ≥ at (and all constraint references to
// it) up by n. The stored basis keeps the survivors' statuses; the new
// variables enter nonbasic. It returns `at`.
func (m *Model) InsertVariables(at, n int, c, lb, ub float64) int {
	nv := m.p.NumVariables()
	if at < 0 || at > nv {
		panic(fmt.Sprintf("lp: InsertVariables at %d outside [0, %d]", at, nv))
	}
	if lb > ub {
		panic(fmt.Sprintf("lp: InsertVariables: lb %g > ub %g", lb, ub))
	}
	if math.IsNaN(c) || math.IsNaN(lb) || math.IsNaN(ub) || math.IsInf(c, 0) {
		panic(fmt.Sprintf("lp: InsertVariables: invalid data c=%g lb=%g ub=%g", c, lb, ub))
	}
	if n <= 0 {
		return at
	}
	if at == nv {
		return m.AddVariables(n, c, lb, ub)
	}
	m.ensureOwnedMatrix() // row idx entries shift in place below
	p := m.p
	p.obj = slices.Insert(p.obj, at, slices.Repeat([]float64{c}, n)...)
	p.lb = slices.Insert(p.lb, at, slices.Repeat([]float64{lb}, n)...)
	p.ub = slices.Insert(p.ub, at, slices.Repeat([]float64{ub}, n)...)
	p.varNames = slices.Insert(p.varNames, at, make([]string, n)...)
	for i := range p.rows {
		r := &p.rows[i]
		for t, v := range r.idx {
			if v >= at {
				r.idx[t] = v + n
			}
		}
	}
	m.structEdit()
	if m.basis != nil {
		m.basis.VarStatus = slices.Insert(m.basis.VarStatus, at,
			slices.Repeat([]BasisStatus{BasisLower}, n)...)
	}
	return at
}

// RemoveVariables deletes variables [at, at+n), dropping their coefficients
// from every constraint and shifting higher indices down by n. The stored
// basis drops the removed statuses in lockstep.
func (m *Model) RemoveVariables(at, n int) {
	nv := m.p.NumVariables()
	if at < 0 || n < 0 || at+n > nv {
		panic(fmt.Sprintf("lp: RemoveVariables [%d, %d) outside [0, %d)", at, at+n, nv))
	}
	if n == 0 {
		return
	}
	m.ensureOwnedMatrix() // rows are compacted in place below
	p := m.p
	p.obj = slices.Delete(p.obj, at, at+n)
	p.lb = slices.Delete(p.lb, at, at+n)
	p.ub = slices.Delete(p.ub, at, at+n)
	p.varNames = slices.Delete(p.varNames, at, at+n)
	for i := range p.rows {
		r := &p.rows[i]
		keep := 0
		for t, v := range r.idx {
			switch {
			case v >= at+n:
				r.idx[keep], r.val[keep] = v-n, r.val[t]
				keep++
			case v < at:
				r.idx[keep], r.val[keep] = v, r.val[t]
				keep++
			default:
				p.nnz--
			}
		}
		r.idx = r.idx[:keep]
		r.val = r.val[:keep]
	}
	m.structEdit()
	if m.basis != nil {
		m.basis.VarStatus = slices.Delete(m.basis.VarStatus, at, at+n)
	}
}

// InsertConstraint inserts a constraint at row position `at`, shifting
// later rows down. The new row's slack enters the stored basis as basic —
// the natural status for a fresh row; the solver's shape repair absorbs any
// resulting surplus.
func (m *Model) InsertConstraint(at int, idx []int, val []float64, sense Sense, rhs float64, name string) int {
	nr := m.p.NumConstraints()
	if at < 0 || at > nr {
		panic(fmt.Sprintf("lp: InsertConstraint at %d outside [0, %d]", at, nr))
	}
	// Validate and copy through the append path, then rotate into place.
	m.p.AddConstraint(idx, val, sense, rhs, name)
	p := m.p
	r := p.rows[nr]
	copy(p.rows[at+1:], p.rows[at:nr])
	p.rows[at] = r
	rn := p.rowNames[nr]
	copy(p.rowNames[at+1:], p.rowNames[at:nr])
	p.rowNames[at] = rn
	m.structEdit()
	if m.basis != nil {
		m.basis.SlackStatus = slices.Insert(m.basis.SlackStatus, at, BasisBasic)
	}
	return at
}

// RemoveConstraints deletes constraint rows [at, at+n); the stored basis
// drops their slack statuses in lockstep.
func (m *Model) RemoveConstraints(at, n int) {
	nr := m.p.NumConstraints()
	if at < 0 || n < 0 || at+n > nr {
		panic(fmt.Sprintf("lp: RemoveConstraints [%d, %d) outside [0, %d)", at, at+n, nr))
	}
	if n == 0 {
		return
	}
	p := m.p
	for i := at; i < at+n; i++ {
		p.nnz -= len(p.rows[i].idx)
	}
	p.rows = append(p.rows[:at], p.rows[at+n:]...)
	p.rowNames = append(p.rowNames[:at], p.rowNames[at+n:]...)
	m.structEdit()
	if m.basis != nil {
		m.basis.SlackStatus = slices.Delete(m.basis.SlackStatus, at, at+n)
	}
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
		m.ensureOwnedMatrix()
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
	m.ensureOwnedMatrix()
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
	// A matrix shared with clones is copied before the first write, but only
	// when something actually changes (pure no-op refreshes stay free).
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
		m.ensureOwnedMatrix()
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
// rebuilt and the stored basis, though spliced to the new shape, is no
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
		if m.std != nil && m.sharedMatrix {
			// Clones of this model still read the old matrix arrays: leave
			// those to them and cut a new set.
			m.std.colPtr, m.std.rowInd, m.std.values = nil, nil, nil
		}
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
	sol := m.run(opts)
	if opts.denseRetry(sol.Status) {
		sol = m.run(opts)
	}
	if sol.Status == Optimal && sol.Basis != nil {
		// Keep a private copy: Solution.Basis belongs to the caller (node
		// snapshots in a branch-and-bound tree outlive many re-solves), and
		// the model's structural edits splice its stored basis in place —
		// retaining the caller's pointer would let those edits corrupt the
		// caller's snapshot, and vice versa.
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

// run executes one simplex attempt over the cached standardized form.
// Scaling mutates the matrix in place, so that option solves a clone.
func (m *Model) run(opts Options) *Solution {
	std := m.std
	if opts.Scale {
		std = std.clone()
	}
	return solveStd(std, opts)
}
