package milp

import "math"

// pseudoCosts maintains per-variable estimates of how much the relaxation
// objective degrades per unit of fractionality when branching a variable
// down (toward its floor) or up (toward its ceiling). Observations come
// from solved child relaxations: a child created by moving variable v a
// fractional distance d that lost Δ objective versus its parent contributes
// Δ/d to v's running average for that direction.
//
// Scores fall back per-variable → global average → 1.0, so before any
// observation exists the selection rule min(down·f, up·(1−f)) reduces to
// min(f, 1−f) — the most-fractional rule.
type pseudoCosts struct {
	downSum, upSum         []float64
	downCnt, upCnt         []int
	globDown, globUp       float64
	globDownCnt, globUpCnt int
}

func newPseudoCosts(nv int) *pseudoCosts {
	return &pseudoCosts{
		downSum: make([]float64, nv),
		upSum:   make([]float64, nv),
		downCnt: make([]int, nv),
		upCnt:   make([]int, nv),
	}
}

// observe records that branching variable v in the given direction over
// fractional distance dist degraded the relaxation objective by deg ≥ 0.
func (pc *pseudoCosts) observe(v int, up bool, dist, deg float64) {
	if dist < 1e-9 {
		return
	}
	perUnit := deg / dist
	if up {
		pc.upSum[v] += perUnit
		pc.upCnt[v]++
		pc.globUp += perUnit
		pc.globUpCnt++
	} else {
		pc.downSum[v] += perUnit
		pc.downCnt[v]++
		pc.globDown += perUnit
		pc.globDownCnt++
	}
}

func (pc *pseudoCosts) down(v int) float64 {
	if pc.downCnt[v] > 0 {
		return pc.downSum[v] / float64(pc.downCnt[v])
	}
	if pc.globDownCnt > 0 {
		return pc.globDown / float64(pc.globDownCnt)
	}
	return 1
}

func (pc *pseudoCosts) up(v int) float64 {
	if pc.upCnt[v] > 0 {
		return pc.upSum[v] / float64(pc.upCnt[v])
	}
	if pc.globUpCnt > 0 {
		return pc.globUp / float64(pc.globUpCnt)
	}
	return 1
}

// selectBranch picks the branching variable for relaxation solution x: the
// integer variable maximizing min(downCost·f, upCost·(1−f)) over fractional
// variables, ties broken toward the lowest index so a fixed observation
// history yields a deterministic choice. Returns (-1, 0) when x is integer
// feasible within tol.
func (pc *pseudoCosts) selectBranch(intVars []int, x []float64, tol float64) (int, float64) {
	// bestScore starts below any real score: a zero score (degenerate
	// observed degradations) must still beat "no fractional variable".
	bestV, bestScore := -1, -1.0
	var bestFrac float64
	for _, v := range intVars {
		f := x[v] - math.Floor(x[v])
		if math.Min(f, 1-f) <= tol {
			continue
		}
		score := math.Min(pc.down(v)*f, pc.up(v)*(1-f))
		if score > bestScore {
			bestScore = score
			bestV = v
			bestFrac = f
		}
	}
	return bestV, bestFrac
}
