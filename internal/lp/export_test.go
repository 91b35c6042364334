package lp

// The external test package, which can import lp/gen, reaches the refactor
// oracle, the unexported Options hooks and a model's right-hand sides
// through these.

var CheckRefactorOracle = checkRefactorOracle

var CheckMaintainedPrices = checkMaintainedPrices

// Dense returns o starting on the dense reference inverse.
func (o Options) Dense() Options { o.dense = true; return o }

// RHS returns the current right-hand side of constraint row.
func (m *Model) RHS(row int) float64 { return m.p.rows[row].rhs }

// ReinvertEvery returns o refactoring every n pivots.
func (o Options) ReinvertEvery(n int) Options { o.reinvertEvery = n; return o }
