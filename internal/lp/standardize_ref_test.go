package lp

// standardizeRef is the map-based standardize the two-pass build replaced,
// kept verbatim as the oracle: a fresh set of arrays per call, a fresh
// map[int]bool per row to count distinct indices, and a merge map whose sums
// start from zero.
func (p *Problem) standardizeRef() *standardized {
	m := len(p.rows)
	n := len(p.obj)
	s := &standardized{
		m:        m,
		n:        n,
		ncols:    n + m,
		c:        make([]float64, n+m),
		lb:       make([]float64, n+m),
		ub:       make([]float64, n+m),
		b:        make([]float64, m),
		maximize: p.objective == Maximize,
		objSign:  1,
	}
	if s.maximize {
		s.objSign = -1
	}
	for j := 0; j < n; j++ {
		s.c[j] = s.objSign * p.obj[j]
		s.lb[j] = p.lb[j]
		s.ub[j] = p.ub[j]
	}

	// Accumulate rows into a column-count pass, then fill.
	counts := make([]int32, n+m+1)
	for _, r := range p.rows {
		seen := map[int]bool{}
		for _, v := range r.idx {
			if !seen[v] {
				counts[v+1]++
				seen[v] = true
			}
		}
	}
	// One slack per row.
	for i := 0; i < m; i++ {
		counts[n+i+1]++
	}
	s.colPtr = make([]int32, n+m+1)
	for j := 0; j < n+m; j++ {
		s.colPtr[j+1] = s.colPtr[j] + counts[j+1]
	}
	total := s.colPtr[n+m]
	s.rowInd = make([]int32, total)
	s.values = make([]float64, total)
	fill := make([]int32, n+m)
	copy(fill, s.colPtr[:n+m])

	// Merge duplicate indices within a row while filling.
	merged := map[int]float64{}
	for i, r := range p.rows {
		clear(merged)
		for t, v := range r.idx {
			merged[v] += r.val[t]
		}
		for v, coef := range merged {
			pos := fill[v]
			s.rowInd[pos] = int32(i)
			s.values[pos] = coef
			fill[v]++
		}
		s.b[i] = r.rhs

		// Slack column.
		sc := n + i
		pos := fill[sc]
		fill[sc]++
		s.rowInd[pos] = int32(i)
		switch r.sense {
		case LE:
			s.values[pos] = 1
			s.lb[sc], s.ub[sc] = 0, Inf
		case GE:
			s.values[pos] = -1
			s.lb[sc], s.ub[sc] = 0, Inf
		case EQ:
			s.values[pos] = 1
			s.lb[sc], s.ub[sc] = 0, 0
		}
	}
	return s
}
