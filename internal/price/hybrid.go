package price

import (
	"pop/internal/cluster"
	"pop/internal/lp"
)

// HybridMaxMin solves the max-min policy exactly, seeding the LP with the
// price-discovery equilibrium: the converged prices and demand supports are
// translated into a combinatorial basis guess (CrossoverBasis) passed as
// lpOpts.WarmBasis, so the simplex starts pivoting from the market's
// near-optimal vertex instead of from scratch. The LP solution — and hence
// the returned allocation — is identical to a plain cluster.MaxMinFairness
// solve: a warm basis the solver cannot use or repair is silently dropped,
// never trusted. The price Solution is returned alongside for accounting.
func HybridMaxMin(jobs []cluster.Job, c cluster.Cluster, popts Options, lpOpts lp.Options) (*cluster.Allocation, *Solution, error) {
	if len(jobs) == 0 {
		a, err := cluster.MaxMinFairness(jobs, c, lpOpts)
		return a, nil, err
	}
	palloc, psol, err := SolveMaxMin(jobs, c, popts)
	if err != nil {
		return nil, nil, err
	}
	lpOpts.WarmBasis = CrossoverBasis(jobs, c, palloc)
	a, err := cluster.MaxMinFairness(jobs, c, lpOpts)
	return a, psol, err
}

// CrossoverBasis builds a basis guess for cluster.MaxMinFairness's exact LP
// layout (n·r solo variables job-major, then the epigraph t; n time rows,
// r capacity rows, then one fair row per non-degenerate job) from a price
// allocation:
//
//   - a job's support variables (positive time fractions, at most two per
//     best-response structure) are basic, everything else at lower bound;
//   - the free epigraph t is basic;
//   - a row's slack is basic exactly when the price solution leaves the row
//     non-binding — time rows with slack in the unit budget, capacity rows
//     with idle GPUs, fair rows strictly above the minimum ratio.
//
// The basic count rarely lands exactly on the row count; the LP solver's
// warm installation repairs the deficit or surplus and falls back to a cold
// start on anything singular, so the guess can only save pivots, never
// change the optimum.
func CrossoverBasis(jobs []cluster.Job, c cluster.Cluster, a *cluster.Allocation) *lp.Basis {
	const tol = 1e-6
	n, r := len(jobs), c.NumTypes()
	eq := cluster.EqualShare(jobs, c)

	nFair := 0
	eqThr := make([]float64, n)
	for idx, j := range jobs {
		eqThr[idx] = cluster.EffectiveThroughput(j, eq)
		if eqThr[idx] > 0 {
			nFair++
		}
	}
	b := &lp.Basis{
		VarStatus:   make([]lp.BasisStatus, n*r+1),
		SlackStatus: make([]lp.BasisStatus, n+r+nFair),
	}
	for i := range b.VarStatus {
		b.VarStatus[i] = lp.BasisLower
	}
	b.VarStatus[n*r] = lp.BasisBasic // the free epigraph t

	minRatio := MaxMinObjective(jobs, c, a)
	used := make([]float64, r)
	fairRow := n + r
	for idx, j := range jobs {
		rowSum := 0.0
		for i := 0; i < r; i++ {
			x := a.X[idx][i]
			rowSum += x
			used[i] += j.Scale * x
			if x > tol {
				b.VarStatus[idx*r+i] = lp.BasisBasic
			}
		}
		if rowSum < 1-tol {
			b.SlackStatus[idx] = lp.BasisBasic // time row non-binding
		}
		if eqThr[idx] > 0 {
			ratio := a.EffThr[idx] / (j.Weight * eqThr[idx] * j.Scale)
			if ratio > minRatio*(1+1e-3) {
				b.SlackStatus[fairRow] = lp.BasisBasic // strictly above the min
			}
			fairRow++
		}
	}
	for i := 0; i < r; i++ {
		if used[i] < c.NumGPUs[i]*(1-tol) {
			b.SlackStatus[n+i] = lp.BasisBasic // capacity non-binding
		}
	}
	return b
}
