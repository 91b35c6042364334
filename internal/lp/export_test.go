package lp

// The external test package, which can import lp/gen, reaches the refactor
// oracle and the unexported Options hooks through these.

var CheckRefactorOracle = checkRefactorOracle

var CheckMaintainedPrices = checkMaintainedPrices

// Dense returns o starting on the dense reference inverse.
func (o Options) Dense() Options { o.dense = true; return o }

// ReinvertEvery returns o refactoring every n pivots.
func (o Options) ReinvertEvery(n int) Options { o.reinvertEvery = n; return o }
