package lp

import "math"

// BasisStatus describes where one column sits in a simplex basis snapshot.
// The numeric values mirror the solver's internal status codes.
type BasisStatus int8

const (
	// BasisBasic marks a column that is in the basis.
	BasisBasic BasisStatus = iota
	// BasisLower marks a nonbasic column resting at its lower bound.
	BasisLower
	// BasisUpper marks a nonbasic column resting at its upper bound.
	BasisUpper
	// BasisFree marks a nonbasic free column held at zero.
	BasisFree
)

// Basis is a combinatorial snapshot of a simplex basis: one status per
// structural variable and one per constraint (for the row's slack). It is
// the warm-start currency of the solver — Solution.Basis from one solve can
// be passed as Options.WarmBasis to a later solve of the same or a similar
// problem (perturbed costs, bounds, or right-hand sides; the dimensions
// must match for the basis to be used directly).
//
// A Basis carries no numeric values, so it remains valid across arbitrary
// coefficient changes; the solver recomputes primal values from the basis
// and falls back to a cold start when the snapshot is stale beyond repair
// (singular after structural drift) or cannot be made primal feasible.
type Basis struct {
	// VarStatus[j] is the status of structural variable j.
	VarStatus []BasisStatus
	// SlackStatus[i] is the status of the slack of constraint i.
	SlackStatus []BasisStatus
}

// Clone returns a deep copy.
func (b *Basis) Clone() *Basis {
	if b == nil {
		return nil
	}
	return &Basis{
		VarStatus:   append([]BasisStatus(nil), b.VarStatus...),
		SlackStatus: append([]BasisStatus(nil), b.SlackStatus...),
	}
}

// NumBasic counts columns with BasisBasic status.
func (b *Basis) NumBasic() int {
	n := 0
	for _, s := range b.VarStatus {
		if s == BasisBasic {
			n++
		}
	}
	for _, s := range b.SlackStatus {
		if s == BasisBasic {
			n++
		}
	}
	return n
}

// snapshotBasis captures the current basis in original-problem terms.
func (s *simplex) snapshotBasis() *Basis {
	n := s.std.n
	b := &Basis{
		VarStatus:   make([]BasisStatus, n),
		SlackStatus: make([]BasisStatus, s.m),
	}
	for j := 0; j < n; j++ {
		b.VarStatus[j] = BasisStatus(s.status[j])
	}
	for i := 0; i < s.m; i++ {
		b.SlackStatus[i] = BasisStatus(s.status[n+i])
	}
	return b
}

// sanitizeStatus coerces a requested nonbasic status into one that is
// representable for the column's bounds (nonbasic columns must rest on a
// finite bound, or at zero when both bounds are infinite).
func sanitizeStatus(lb, ub float64, st BasisStatus) int8 {
	loInf, hiInf := math.IsInf(lb, -1), math.IsInf(ub, 1)
	switch st {
	case BasisLower:
		if !loInf {
			return statLower
		}
		if !hiInf {
			return statUpper
		}
		return statFree
	case BasisUpper:
		if !hiInf {
			return statUpper
		}
		if !loInf {
			return statLower
		}
		return statFree
	default: // BasisFree or anything unknown
		if loInf && hiInf {
			return statFree
		}
		if !loInf {
			return statLower
		}
		return statUpper
	}
}

// initWarm attempts to start the solve from the supplied basis snapshot. It
// returns false — leaving the caller to run the cold all-artificial phase 1
// — when the snapshot's dimensions do not match, the implied basis matrix is
// singular, or the basic values it induces cannot be repaired into primal
// feasibility. On success the solver state is primal feasible and ready for
// phase 2.
func (s *simplex) initWarm(b *Basis) bool {
	if !s.installBasis(b) {
		return false
	}
	if s.maxBoundViolation() <= 10*s.opts.TolFeas {
		return true
	}
	return s.warmRepair()
}

// installBasis materializes a basis snapshot into solver state: statuses and
// nonbasic values from the snapshot (with the basic count repaired if the
// shape drifted), a fresh factorization, and recomputed basic values. It
// returns false when the snapshot's dimensions do not match or the implied
// basis matrix is singular; it does not judge primal or dual feasibility —
// that is the caller's start-strategy decision.
func (s *simplex) installBasis(b *Basis) bool {
	std := s.std
	m, n := s.m, std.n
	if b == nil || len(b.VarStatus) != n || len(b.SlackStatus) != m {
		return false
	}

	s.phase = 2 // artificials stay pinned to [0,0] throughout a warm solve
	s.artStart = s.ncols
	s.status = zeroed(s.status, s.ncols+m)
	s.x = zeroed(s.x, s.ncols+m)
	s.cost = zeroed(s.cost, s.ncols+m)
	s.artSign = sized(s.artSign, m)
	for i := range s.artSign {
		s.artSign[i] = 1
	}

	nbasic := 0
	for j := 0; j < s.ncols; j++ {
		var want BasisStatus
		if j < n {
			want = b.VarStatus[j]
		} else {
			want = b.SlackStatus[j-n]
		}
		if want == BasisBasic {
			s.status[j] = statBasic
			nbasic++
			continue
		}
		st := sanitizeStatus(std.lb[j], std.ub[j], want)
		s.status[j] = st
		switch st {
		case statLower:
			s.x[j] = std.lb[j]
		case statUpper:
			s.x[j] = std.ub[j]
		}
	}
	for i := 0; i < m; i++ {
		s.status[s.ncols+i] = statLower
	}

	// Repair the basic count: a snapshot carried across a structural change
	// (clients arriving or departing) rarely lands on exactly m basics.
	// Promote nonbasic slacks (in reverse row order, so the shared trailing
	// rows of block-structured models — whose binding status is what a
	// departed block most plausibly relaxed — absorb the deficit before any
	// surviving client's rows are disturbed) or demote excess basics (high
	// columns first) until the count is right; refactor rejects any truly
	// bad choice below.
	for i := m - 1; i >= 0 && nbasic < m; i-- {
		j := n + i
		if s.status[j] != statBasic {
			s.status[j] = statBasic
			s.x[j] = 0
			nbasic++
		}
	}
	for j := s.ncols - 1; j >= 0 && nbasic > m; j-- {
		if s.status[j] != statBasic {
			continue
		}
		st := sanitizeStatus(std.lb[j], std.ub[j], BasisLower)
		s.status[j] = st
		switch st {
		case statLower:
			s.x[j] = std.lb[j]
		case statUpper:
			s.x[j] = std.ub[j]
		default:
			s.x[j] = 0
		}
		nbasic--
	}
	if nbasic != m {
		return false
	}

	s.basis = sized(s.basis, m)[:0]
	for j := 0; j < s.ncols; j++ {
		if s.status[j] == statBasic {
			s.basis = append(s.basis, j)
		}
	}

	s.y = zeroed(s.y, m)
	s.w = zeroed(s.w, m)
	s.rhs = zeroed(s.rhs, m)
	s.installFactor()
	// reinvert factorizes (falling back to the dense inverse on numerical
	// trouble) and recomputes x_B = B⁻¹(b - N x_N); a singular stale basis
	// fails here.
	return s.reinvert()
}

// maxBoundViolation reports the largest bound violation over basic columns
// (nonbasic columns sit exactly on their bounds by construction).
func (s *simplex) maxBoundViolation() float64 {
	worst := 0.0
	for _, j := range s.basis {
		if math.IsNaN(s.x[j]) || math.IsInf(s.x[j], 0) {
			// A nonfinite basic value (near-singular stale basis) would pass
			// every `v > worst` comparison vacuously; force the repair path,
			// which rejects it.
			return math.Inf(1)
		}
		lb, ub := s.lbOf(j), s.ubOf(j)
		if v := lb - s.x[j]; v > worst {
			worst = v
		}
		if v := s.x[j] - ub; v > worst {
			worst = v
		}
	}
	return worst
}

// savedBound is one column's true bounds, set aside while warmRepair has
// them relaxed.
type savedBound struct {
	j      int
	lb, ub float64
}

// warmRepair drives a bound-infeasible warm basis back into the feasible
// region with a bound-shifting phase 1: every out-of-bounds column has its
// bounds temporarily relaxed to the interval between its current value and
// the violated true bound, and is given a unit cost pushing it toward that
// bound; everything else keeps its true bounds at zero cost. Minimizing
// this composite objective with ordinary phase-2 pivots moves the violators
// home without ever disturbing columns that are already feasible (the ratio
// test holds them inside their true bounds). Columns that arrive are
// released pass by pass; the loop ends when no violations remain, and gives
// up (cold fallback) when a pass stops making progress.
func (s *simplex) warmRepair() bool {
	const maxPasses = 8
	tol := s.opts.TolFeas
	prevViol := math.Inf(1)
	for pass := 0; pass < maxPasses; pass++ {
		// Read-only pass: measure the remaining violation.
		viol, count := 0.0, 0
		for j := 0; j < s.ncols; j++ {
			if math.IsNaN(s.x[j]) || math.IsInf(s.x[j], 0) {
				return false // nonfinite state is beyond repair: cold restart
			}
			if v := s.std.lb[j] - s.x[j]; v > tol {
				viol += v
				count++
			} else if v := s.x[j] - s.std.ub[j]; v > tol {
				viol += v
				count++
			}
		}
		if count == 0 {
			return true
		}
		if pass > 0 && viol >= prevViol*(1-1e-9) {
			return false // a pass made no progress: the snapshot is beyond repair
		}
		prevViol = viol

		// Relax the violators and install the composite phase-1 costs.
		sv := s.saved[:0]
		for j := 0; j < s.ncols; j++ {
			s.cost[j] = 0
			lb, ub := s.std.lb[j], s.std.ub[j]
			switch {
			case s.x[j] < lb-tol:
				sv = append(sv, savedBound{j, lb, ub})
				s.std.lb[j] = s.x[j]
				s.std.ub[j] = lb
				s.cost[j] = -1
			case s.x[j] > ub+tol:
				sv = append(sv, savedBound{j, lb, ub})
				s.std.lb[j] = ub
				s.std.ub[j] = s.x[j]
				s.cost[j] = 1
			}
		}
		s.saved = sv
		s.degenerateRun = 0
		s.blandMode = s.opts.blandOnly
		st := s.iterate()

		// Restore the true bounds and re-derive the status of every relaxed
		// column that ended up nonbasic: it sits either on a true bound
		// (released) or on its violation anchor (re-relaxed next pass).
		ok := st == Optimal
		for _, e := range sv {
			s.std.lb[e.j], s.std.ub[e.j] = e.lb, e.ub
			if s.status[e.j] == statBasic {
				continue
			}
			x := s.x[e.j]
			switch {
			case math.Abs(x-e.lb) <= tol*(1+math.Abs(e.lb)):
				s.x[e.j] = e.lb
				s.status[e.j] = statLower
			case math.Abs(x-e.ub) <= tol*(1+math.Abs(e.ub)):
				s.x[e.j] = e.ub
				s.status[e.j] = statUpper
			case x < e.lb:
				s.status[e.j] = statLower
			case x > e.ub:
				s.status[e.j] = statUpper
			default:
				ok = false // nonbasic strictly inside its true bounds: give up
			}
		}
		if !ok {
			return false
		}
		// Snapping relaxed columns onto exact bounds shifts N·x_N slightly;
		// refresh the basic values before judging feasibility again.
		s.recomputeBasics()
	}
	return false
}
