package lp

import "slices"

// The external test package, which can import lp/gen, reaches the refactor
// oracle, the unexported Options hooks, a model's right-hand sides and
// rebuilds of its own contents through these.

var CheckRefactorOracle = checkRefactorOracle

var CheckMaintainedPrices = checkMaintainedPrices

// Dense returns o starting on the dense reference inverse.
func (o Options) Dense() Options { o.dense = true; return o }

// RHS returns the current right-hand side of constraint row.
func (m *Model) RHS(row int) float64 { return m.p.rows[row].rhs }

// ReinvertEvery returns o refactoring every n pivots.
func (o Options) ReinvertEvery(n int) Options { o.reinvertEvery = n; return o }

// RebuildWithout Resets m and builds its problem into it again without
// constraint row and variable v (-1 keeps them all), then installs the
// basis it held with their statuses dropped — the online engine's rebuild
// after a departure, in miniature.
func (m *Model) RebuildWithout(row, v int) {
	p, old := m.p.Clone(), m.Basis()
	m.Reset()
	for j := range p.obj {
		if j != v {
			m.AddVariable(p.obj[j], p.lb[j], p.ub[j], p.varNames[j])
		}
	}
	for i, r := range p.rows {
		if i == row {
			continue
		}
		var idx []int
		var val []float64
		for t, j := range r.idx {
			if j == v {
				continue
			}
			if v >= 0 && j > v {
				j--
			}
			idx, val = append(idx, j), append(val, r.val[t])
		}
		m.AddConstraint(idx, val, r.sense, r.rhs, p.rowNames[i])
	}
	if old == nil {
		return
	}
	if v >= 0 {
		old.VarStatus = slices.Delete(old.VarStatus, v, v+1)
	}
	if row >= 0 {
		old.SlackStatus = slices.Delete(old.SlackStatus, row, row+1)
	}
	m.SetBasis(old)
}

// RebuildEdited Resets m and builds its problem into it again in the same
// shape with edit's value changes, keeping whatever basis it held — the
// online engine's rebuild of a sub-problem whose layout stayed, in
// miniature. The model classifies the rebuild itself.
func (m *Model) RebuildEdited(edit func(*Edit)) {
	p := m.p.Clone()
	edit(&Edit{p})
	m.Reset()
	for j := range p.obj {
		m.AddVariable(p.obj[j], p.lb[j], p.ub[j], p.varNames[j])
	}
	for i, r := range p.rows {
		m.AddConstraint(r.idx, r.val, r.sense, r.rhs, p.rowNames[i])
	}
}

// Edit is a problem under RebuildEdited's value changes.
type Edit struct{ p *Problem }

// RHS sets the right-hand side of constraint row.
func (e *Edit) RHS(row int, rhs float64) { e.p.rows[row].rhs = rhs }

// Objective sets the objective coefficient of variable v.
func (e *Edit) Objective(v int, c float64) { e.p.obj[v] = c }

// Coeff sets the merged coefficient of variable v in constraint row: the
// row's first entry for v takes it and later duplicates go to zero, an
// absent nonzero is appended, and an unchanged merged value leaves the row
// as it is.
func (e *Edit) Coeff(row, v int, coef float64) {
	r := &e.p.rows[row]
	first, cur := -1, 0.0
	for t, j := range r.idx {
		if j == v {
			if first < 0 {
				first = t
			}
			cur += r.val[t]
		}
	}
	switch {
	case first < 0 && coef != 0:
		r.idx, r.val = append(r.idx, v), append(r.val, coef)
		e.p.nnz++
	case first >= 0 && cur != coef:
		for t := first; t < len(r.idx); t++ {
			if r.idx[t] == v {
				r.val[t] = 0
			}
		}
		r.val[first] = coef
	}
}
