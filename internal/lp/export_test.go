package lp

import "slices"

// The external test package, which can import lp/gen, reaches the refactor
// oracle, the unexported Options hooks, a model's right-hand sides and a
// rebuild of its own contents through these.

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
