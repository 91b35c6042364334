package lp

import "math"

// This file implements the dual simplex phase used to re-solve
// rhs/bound-only perturbations of an already-solved model. The previous
// optimal basis stays dual feasible under such deltas (reduced costs do not
// depend on b, l, or u), so instead of repairing primal feasibility with the
// bound-shifting phase 1 the solver can run dual pivots: repeatedly choose a
// basic variable that violates one of its bounds, drive it out of the basis
// onto that bound, and bring in the nonbasic column whose reduced-cost ratio
// keeps every other column dual feasible. Each pivot removes one
// infeasibility, so load-change deltas typically settle in a handful of
// pivots where a primal warm repair would grind through a composite
// phase 1.
//
// Leaving-row selection uses dual devex weights: rows are ranked by
// violation²/weight, where the reference-framework weights (Forrest–Goldfarb)
// grow as rows participate in pivots, which steers long delta chains away
// from repeatedly hammering the same degenerate rows. Entering-column
// selection is a Harris two-pass bounded ratio test: pass 1 relaxes every
// reduced cost by the dual tolerance to find the loosest admissible ratio,
// pass 2 takes the largest-pivot candidate under it, trading a ≤ TolOpt
// dual excursion for pivot quality on degenerate chains.
//
// Entry is gated by initWarmDual, which rejects (returning the caller to
// the primal warm path) any start that is not an exact-shape, factorizable,
// dual-feasible snapshot. dualIterate finishes Optimal, or stalls on a row
// whose violation no column can absorb. A stall is an Infeasible verdict
// only once certifyInfeasible has checked that row's ray on the problem
// itself, with a margin no point a cold phase 1 would accept can cross.
// Anything else — a ray that fails the check, the iteration limit,
// numerical trouble — is a failure the caller falls back from, so the dual
// phase changes solve speed, never solve outcomes.

// initWarmDual attempts to install basis snapshot b as a dual simplex
// starting point. Unlike the primal warm path it demands an exact fit: the
// snapshot must have the model's shape, exactly m basic columns, a
// factorizable basis matrix, and reduced costs that are still dual feasible
// for the current objective. On success the solver holds phase-2 costs, a
// factorized basis, and (possibly bound-violating) basic values, ready for
// dualIterate.
func (s *simplex) initWarmDual(b *Basis) bool {
	if b == nil || len(b.VarStatus) != s.std.n || len(b.SlackStatus) != s.std.m {
		return false
	}
	if b.NumBasic() != s.std.m {
		// A repaired basic count means promoted/demoted columns whose
		// reduced costs carry no dual-feasibility promise; leave those
		// snapshots to the primal warm path.
		return false
	}
	if !s.installBasis(b) {
		return false
	}
	s.phase = 2
	copy(s.cost, s.std.c)

	// Dual feasibility check against the real costs, priced fresh; these
	// are the reduced costs dualIterate then maintains. An optimal snapshot
	// perturbed only in b/l/u passes exactly; anything else that happens to
	// pass is equally safe to pivot on.
	s.reprice()
	tol := 10 * s.opts.TolOpt
	for j, d := range s.dj {
		if s.status[j] == statBasic || s.std.lb[j] == s.std.ub[j] {
			continue
		}
		switch s.status[j] {
		case statLower:
			if d < -tol {
				return false
			}
		case statUpper:
			if d > tol {
				return false
			}
		default: // statFree
			if math.Abs(d) > tol {
				return false
			}
		}
	}
	// Fresh reference framework per install — weights describe this basis
	// only.
	s.dualW = sized(s.dualW, s.m)
	s.resetDualDevex()
	return true
}

// dualIterate runs dual simplex pivots until every basic variable is back
// inside its bounds (Optimal — primal and dual feasible, so the phase-2
// primal cleanup that follows typically takes zero pivots) or the phase
// fails. Infeasible here means no entering column could absorb the
// violation of basis row ray, whose ρ = B⁻ᵀe_ray is left in s.rho: a
// candidate Farkas ray the caller certifies (certifyInfeasible) before it
// trusts the verdict; ray is -1 on every other status. Its ratios read the
// reduced costs initWarmDual priced, maintained from each pivot row and
// re-priced after every refactorization; no verdict here rests on them.
func (s *simplex) dualIterate() (st Status, ray int) {
	tolP := s.opts.TolPivot
	tolF := s.opts.TolFeas

	for {
		if s.iters >= s.opts.MaxIters {
			return IterLimit, -1
		}
		if s.prices == pricesStale {
			s.reprice()
		}
		if pricingHook != nil {
			pricingHook(s)
		}

		// Leaving row: devex-scored bound violation (violation²/weight), first
		// violation under Bland mode (guaranteeing finite termination under
		// degeneracy).
		r := -1
		above := false // true when the violation is past the upper bound
		worst := 0.0
		for i := 0; i < s.m; i++ {
			j := s.basis[i]
			viol, up := 0.0, false
			if v := s.lbOf(j) - s.x[j]; v > tolF {
				viol = v
			}
			if v := s.x[j] - s.ubOf(j); v > tolF && v > viol {
				viol, up = v, true
			}
			if viol == 0 {
				continue
			}
			if s.blandMode {
				r, above = i, up
				break
			}
			if score := viol * viol / s.dualW[i]; score > worst {
				worst, r, above = score, i, up
			}
		}
		if r < 0 {
			return Optimal, -1
		}

		out := s.basis[r]
		var bound float64
		vdir := 1.0
		if above {
			bound = s.ubOf(out)
		} else {
			bound = s.lbOf(out)
			vdir = -1
		}
		delta := s.x[out] - bound // sign matches vdir

		s.pivotRow(r)

		// Entering column, Harris two-pass. Pass 1 collects every column
		// whose movement can absorb the violation and the loosest
		// admissible ratio (each reduced cost relaxed by the dual
		// tolerance); pass 2 picks the largest |pivot| among candidates
		// whose exact ratio fits under it, so degenerate chains pay a
		// ≤ TolOpt dual excursion instead of a near-zero pivot. Bland
		// mode keeps the strict smallest-ratio, smallest-index rule.
		candJ := s.dualCandJ[:0]
		candA := s.dualCandA[:0]
		candD := s.dualCandD[:0]
		thetaMax := math.Inf(1)
		tolD := s.opts.TolOpt
		for _, j := range s.alphaJ {
			st := s.status[j]
			if st == statBasic || s.std.lb[j] == s.std.ub[j] {
				continue
			}
			alpha := s.alpha[j]
			abar := alpha * vdir
			switch st {
			case statLower:
				if abar <= tolP {
					continue
				}
			case statUpper:
				if abar >= -tolP {
					continue
				}
			default: // statFree
				if abar <= tolP && abar >= -tolP {
					continue
				}
			}
			dj := math.Abs(s.dj[j])
			if t := (dj + tolD) / math.Abs(alpha); t < thetaMax {
				thetaMax = t
			}
			candJ = append(candJ, j)
			candA = append(candA, alpha)
			candD = append(candD, dj)
		}
		s.dualCandJ, s.dualCandA, s.dualCandD = candJ, candA, candD
		if len(candJ) == 0 {
			// No column can absorb the violation: the primal is infeasible
			// (dual unbounded) — as far as this basis can tell.
			return Infeasible, r
		}
		q := -1
		var alphaQ, bestRatio, bestPiv float64
		if s.blandMode {
			bestRatio = math.Inf(1)
			for t, j := range candJ {
				ratio := candD[t] / math.Abs(candA[t])
				if ratio < bestRatio-1e-12 || (ratio <= bestRatio+1e-12 && (q < 0 || int(j) < q)) {
					q, alphaQ, bestRatio = int(j), candA[t], ratio
				}
			}
		} else {
			for t, j := range candJ {
				a := math.Abs(candA[t])
				if a <= bestPiv {
					continue
				}
				if ratio := candD[t] / a; ratio <= thetaMax {
					q, alphaQ, bestRatio, bestPiv = int(j), candA[t], ratio, a
				}
			}
			if q < 0 {
				// Unreachable barring floating-point corner cases (the exact
				// minimum ratio always fits under the relaxed bound); take
				// the strict minimum as the safe answer.
				bestRatio = math.Inf(1)
				for t, j := range candJ {
					if ratio := candD[t] / math.Abs(candA[t]); ratio < bestRatio {
						q, alphaQ, bestRatio = int(j), candA[t], ratio
					}
				}
			}
		}

		// Pivot. The ftran'd entering column must agree with the row-wise
		// pivot element; a mismatch or vanishing pivot means the
		// factorization has drifted — reinvert once, then give up.
		s.ftran(q)
		wr := s.w[r]
		if math.Abs(wr) <= tolP || wr*alphaQ < 0 {
			if s.tryRecover() {
				continue
			}
			return Numerical, -1
		}
		s.updateDualDevex(r)
		s.updatePrices(q, out, wr)
		step := delta / wr
		for i := 0; i < s.m; i++ {
			if wi := s.w[i]; wi != 0 {
				s.x[s.basis[i]] -= wi * step
			}
		}
		s.x[out] = bound
		if above {
			s.status[out] = statUpper
		} else {
			s.status[out] = statLower
		}
		s.x[q] += step
		s.basis[r] = q
		s.status[q] = statBasic

		// Dual degeneracy (zero-ratio pivots) is where cycling lives; after
		// a run of them, switch to Bland-style selection.
		if bestRatio <= s.opts.TolOpt {
			s.degenerateRun++
			if s.degenerateRun > 2*s.m+20 {
				s.blandMode = true
			}
		} else {
			s.degenerateRun = 0
			if !s.opts.blandOnly {
				s.blandMode = false
			}
		}

		if !s.bas.update(r, s.w) {
			if !s.reinvert() {
				return Numerical, -1
			}
		}
		s.iters++
		s.sinceReinvert++
		if s.sinceReinvert >= s.opts.reinvertEvery || s.bas.wantRefactor() {
			if !s.reinvert() {
				return Numerical, -1
			}
		}
	}
}

// certifyInfeasible reports whether basis row r, on which dualIterate
// stalled, proves the problem as posed infeasible. With y = s.rho (still
// B⁻ᵀe_r) and a_j = yᵀA_j over every structural and slack column, every x
// with Ax = b inside the bound box has yᵀb = Σ a_j·x_j ∈ [lo, hi]; a yᵀb
// outside that interval by more than the margin is a Farkas certificate.
//
// The a_j are recomputed column by column from A rather than read off the
// pivot row, so the check rests only on y, A, b and the bounds. Basic
// columns other than r's are zero by construction, and on a column with an
// infinite bound |a_j| ≤ 1e-14·max|a| is round-off and counts as zero. The
// margin 10·TolFeas·(‖y‖₁ + ‖a‖₁) is ten times the most any point phase 1
// accepts (every artificial, so every row residual, within TolFeas; every
// bound met to TolFeas) can move yᵀb off Σ a_j·x_j or Σ a_j·x_j off
// [lo, hi], so a certified verdict cannot disagree with a cold solve; a
// further 1e-12 of the summed magnitudes covers the sums' own round-off.
// It costs O(nnz(A)) and runs once per stall.
func (s *simplex) certifyInfeasible(r int) bool {
	std, y, out := s.std, s.rho, s.basis[r]
	coef := func(j int) float64 {
		if s.status[j] == statBasic && j != out {
			return 0
		}
		a := 0.0
		ind, val := std.col(j)
		for t, i := range ind {
			a += y[i] * val[t]
		}
		return a
	}
	maxA := 0.0
	for j := 0; j < s.ncols; j++ {
		maxA = math.Max(maxA, math.Abs(coef(j)))
	}
	tiny := 1e-14 * maxA

	var lo, hi, normA, mag float64
	for j := 0; j < s.ncols; j++ {
		a := coef(j)
		if a == 0 {
			continue
		}
		low, high := a*std.lb[j], a*std.ub[j]
		if a < 0 {
			low, high = high, low
		}
		if (math.IsInf(low, 0) || math.IsInf(high, 0)) && math.Abs(a) <= tiny {
			continue
		}
		// An infinite end only ever pushes lo down or hi up, so the sums
		// never meet +Inf + -Inf.
		lo += low
		hi += high
		normA += math.Abs(a)
		if !math.IsInf(low, 0) {
			mag += math.Abs(low)
		}
		if !math.IsInf(high, 0) {
			mag += math.Abs(high)
		}
	}
	var yb, normY float64
	for i, yi := range y {
		yb += yi * std.b[i]
		normY += math.Abs(yi)
		mag += math.Abs(yi * std.b[i])
	}
	margin := 10*s.opts.TolFeas*(normY+normA) + 1e-12*mag
	// A NaN anywhere fails both comparisons: no certificate.
	return yb > hi+margin || yb < lo-margin
}

// updateDualDevex refreshes the dual reference weights after a pivot in row
// r, reading the entering column's ftran from s.w (so it must run after
// s.ftran(q) and before the basis update). Weights live on basis positions:
// position i's weight grows with (w_i/w_r)² relative to the pivot row's, the
// standard Forrest–Goldfarb recurrence transposed to rows.
func (s *simplex) updateDualDevex(r int) {
	wr := s.w[r]
	wref := s.dualW[r]
	inv2 := 1 / (wr * wr)
	maxW := 1.0
	for i, wi := range s.w {
		if wi == 0 || i == r {
			continue
		}
		if cand := wi * wi * inv2 * wref; cand > s.dualW[i] {
			s.dualW[i] = cand
		}
		if s.dualW[i] > maxW {
			maxW = s.dualW[i]
		}
	}
	out := wref * inv2
	if out < 1 {
		out = 1
	}
	s.dualW[r] = out
	// Reset the framework when weights blow up (standard devex hygiene).
	if maxW > 1e8 {
		s.resetDualDevex()
	}
}

// resetDualDevex restores the dual reference framework (all row weights 1).
func (s *simplex) resetDualDevex() {
	for i := range s.dualW {
		s.dualW[i] = 1
	}
}
