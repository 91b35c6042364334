package lp

import (
	"fmt"
	"math"

	"pop/internal/obs"
)

// Columns is a linear program given in compressed columns, the layout the
// solver stores A in:
//
//	optimize Σ Cost[j]·x[j]  subject to  row i of A·x  Sense[i]  RHS[i],
//	Lower[j] ≤ x[j] ≤ Upper[j],
//
// where column j of A holds Values[t] in row RowInd[t] for t in
// [ColPtr[j], ColPtr[j+1]), its rows strictly ascending. A caller that can
// write its columns directly (a path LP, whose columns are the paths) skips
// the row builder and the transpose a Problem's solve makes; the equality
// form a solve builds from Columns is bit for bit the one the same LP built
// row by row through Problem gives. A solve reads the fields and keeps none
// of them.
type Columns struct {
	Objective Objective

	// One entry per column.
	Cost, Lower, Upper []float64
	// ColPtr has one entry per column plus one, from 0 to len(RowInd).
	ColPtr []int32
	// RowInd and Values hold the entries column after column.
	RowInd []int32
	Values []float64

	// One entry per row.
	Sense []Sense
	RHS   []float64
}

// SolveWithOptions optimizes the program. A non-nil error is returned only
// for malformed input, which it names (the fault a Problem's builder would
// panic on, or a column layout that breaks the rules above); solver
// outcomes are reported through Solution.Status, as for Problem.
func (c *Columns) SolveWithOptions(opts Options) (*Solution, error) {
	std, err := c.standardizeObs(opts.Obs)
	if err != nil {
		return nil, err
	}
	sol := solveStd(std, opts)
	if opts.denseRetry(sol.Status) {
		sol = solveStd(std, opts)
	}
	return sol, nil
}

// standardizeObs checks and standardizes c under the "lp.standardize" span.
func (c *Columns) standardizeObs(o *obs.Observer) (*standardized, error) {
	sp := o.Span("lp.standardize")
	defer sp.End()
	if err := c.check(); err != nil {
		return nil, err
	}
	return c.standardize(), nil
}

// check reports the first way c breaks the Columns layout or holds data a
// Problem's builder refuses.
func (c *Columns) check() error {
	n, m, nnz := len(c.Cost), len(c.RHS), len(c.RowInd)
	switch {
	case n == 0:
		return fmt.Errorf("lp: model has no variables")
	case len(c.Lower) != n || len(c.Upper) != n:
		return fmt.Errorf("lp: columns: %d costs, %d lower and %d upper bounds", n, len(c.Lower), len(c.Upper))
	case len(c.ColPtr) != n+1:
		return fmt.Errorf("lp: columns: %d column pointers for %d columns, want %d", len(c.ColPtr), n, n+1)
	case len(c.Values) != nnz:
		return fmt.Errorf("lp: columns: %d row indices, %d values", nnz, len(c.Values))
	case len(c.Sense) != m:
		return fmt.Errorf("lp: columns: %d senses, %d right-hand sides", len(c.Sense), m)
	case c.ColPtr[0] != 0 || int(c.ColPtr[n]) != nnz:
		return fmt.Errorf("lp: columns: column pointers run %d..%d, want 0..%d", c.ColPtr[0], c.ColPtr[n], nnz)
	}
	for j := 0; j < n; j++ {
		lb, ub, cost := c.Lower[j], c.Upper[j], c.Cost[j]
		if math.IsNaN(cost) || math.IsInf(cost, 0) || math.IsNaN(lb) || math.IsNaN(ub) {
			return fmt.Errorf("lp: column %d has invalid data c=%g lb=%g ub=%g", j, cost, lb, ub)
		}
		if lb > ub {
			return fmt.Errorf("lp: column %d has lb %g > ub %g", j, lb, ub)
		}
		lo, hi := c.ColPtr[j], c.ColPtr[j+1]
		if lo > hi || int(hi) > nnz {
			return fmt.Errorf("lp: column %d: column pointers %d..%d leave 0..%d or decrease", j, lo, hi, nnz)
		}
		prev := int32(-1)
		for t := lo; t < hi; t++ {
			i, v := c.RowInd[t], c.Values[t]
			if i < 0 || int(i) >= m {
				return fmt.Errorf("lp: column %d references unknown row %d of %d", j, i, m)
			}
			if i <= prev {
				return fmt.Errorf("lp: column %d: row %d after row %d, rows must ascend strictly", j, i, prev)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("lp: column %d has non-finite coefficient %g in row %d", j, v, i)
			}
			prev = i
		}
	}
	for i, s := range c.Sense {
		if s != LE && s != GE && s != EQ {
			return fmt.Errorf("lp: row %d has invalid sense %v", i, s)
		}
		if math.IsNaN(c.RHS[i]) {
			return fmt.Errorf("lp: row %d has NaN rhs", i)
		}
	}
	return nil
}

// standardize builds the equality form of a checked c: its columns copied,
// then one slack column per row by the rule Problem.standardize follows.
func (c *Columns) standardize() *standardized {
	n, m, nnz := len(c.Cost), len(c.RHS), len(c.RowInd)
	s := &standardized{
		m: m, n: n, ncols: n + m,
		colPtr: make([]int32, n+m+1),
		rowInd: make([]int32, nnz+m),
		values: make([]float64, nnz+m),
		c:      make([]float64, n+m),
		lb:     make([]float64, n+m),
		ub:     make([]float64, n+m),
		b:      make([]float64, m),

		maximize: c.Objective == Maximize,
		objSign:  1,
	}
	if s.maximize {
		s.objSign = -1
	}
	for j, cost := range c.Cost {
		s.c[j] = s.objSign * cost
	}
	copy(s.lb, c.Lower)
	copy(s.ub, c.Upper)
	copy(s.colPtr, c.ColPtr)
	copy(s.rowInd, c.RowInd)
	for t, v := range c.Values {
		s.values[t] = 0 + v // the row build's sums start from +0: a −0 is stored as +0
	}
	copy(s.b, c.RHS)
	for i, sense := range c.Sense {
		pos := int32(nnz + i)
		s.colPtr[n+i+1] = pos + 1
		s.setSlack(i, pos, sense)
	}
	return s
}
