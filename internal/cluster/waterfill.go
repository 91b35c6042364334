package cluster

import (
	"fmt"
	"math"

	"pop/internal/lp"
)

// MaxMinFairnessWaterfill computes the lexicographic max-min fair
// allocation by iterated water filling, the procedure Gavel itself uses:
// solve the single-level max-min LP, freeze every job whose normalized
// throughput is pinned at the optimum t* (detected by re-solving with that
// job's ratio fixed), and re-optimize the remainder until all jobs are
// frozen.
//
// The POP paper's formulation (§4.1) is the single-level LP
// (MaxMinFairness); this extension exists because downstream users of a
// fairness policy usually want the lexicographic refinement — jobs that
// could get more without hurting anyone should get more. It is also a
// stress test for the LP substrate: each round re-solves with tightened
// equality rows.
func MaxMinFairnessWaterfill(jobs []Job, c Cluster, opts lp.Options) (*Allocation, error) {
	if len(jobs) == 0 {
		return emptyAllocation(), nil
	}
	r := c.NumTypes()
	eq := EqualShare(jobs, c)
	frozen := make([]bool, len(jobs))
	floor := make([]float64, len(jobs)) // per-job normalized-ratio lower bound
	maxRounds := len(jobs)

	var lastAlloc *Allocation
	lpVars := 0
	for round := 0; round < maxRounds; round++ {
		// Epigraph LP over unfrozen jobs; frozen jobs keep ratio ≥ floor.
		p := lp.NewProblem(lp.Maximize)
		varOf := soloVars(p, len(jobs), r)
		tv := p.AddVariable(1, math.Inf(-1), lp.Inf, "t")
		addSoloCaps(p, jobs, c, varOf)
		for idx, j := range jobs {
			eqThr := EffectiveThroughput(j, eq)
			if eqThr <= 0 {
				continue
			}
			idxs := make([]int, 0, r+1)
			coefs := make([]float64, 0, r+1)
			for i := 0; i < r; i++ {
				idxs = append(idxs, varOf[idx][i])
				coefs = append(coefs, j.Throughput[i]/(j.Weight*eqThr*j.Scale))
			}
			if frozen[idx] {
				p.AddConstraint(idxs, coefs, lp.GE, floor[idx], "frozen")
			} else {
				idxs = append(idxs, tv)
				coefs = append(coefs, -1)
				p.AddConstraint(idxs, coefs, lp.GE, 0, "fair")
			}
		}
		sol, err := p.SolveWithOptions(opts)
		if err != nil {
			return nil, err
		}
		if sol.Status != lp.Optimal {
			return nil, fmt.Errorf("cluster: waterfill round %d: %v", round, sol.Status)
		}
		lpVars += p.NumVariables()
		lastAlloc = soloAllocation(jobs, r, varOf, sol, lpVars)
		tStar := sol.Objective

		// Freeze jobs pinned at t*: a job is pinned if raising everyone
		// else cannot raise it, detected conservatively by freezing all
		// unfrozen jobs whose ratio sits at t* within tolerance. At least
		// one job is always pinned at the optimum, so the loop terminates.
		ratios := NormalizedRatios(jobs, c, lastAlloc)
		progressed := false
		for idx := range jobs {
			if frozen[idx] {
				continue
			}
			if ratios[idx] <= tStar*(1+1e-6)+1e-9 {
				frozen[idx] = true
				floor[idx] = tStar
				progressed = true
			}
		}
		if !progressed {
			break
		}
		done := true
		for idx := range jobs {
			if !frozen[idx] {
				done = false
				break
			}
		}
		if done {
			break
		}
	}
	return lastAlloc, nil
}
