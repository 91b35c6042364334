package cluster

import (
	"fmt"
	"math"

	"pop/internal/lp"
	"pop/internal/propfair"
)

// MaxMinFairness solves the heterogeneity-aware Least Attained Service
// policy from §4.1 (no space sharing):
//
//	maximize  min_j  (1/w_j) · thr(j,A) / (thr(j,A_equal) · z_j)
//	s.t.      0 ≤ A_ji ≤ 1,  Σ_i A_ji ≤ 1,  Σ_j A_ji·z_j ≤ NumGPUs_i
//
// expressed as an epigraph LP with a free auxiliary t.
func MaxMinFairness(jobs []Job, c Cluster, opts lp.Options) (*Allocation, error) {
	eq := EqualShare(jobs, c)
	return solveEpigraph(jobs, c, opts, "max-min", func(j Job) float64 {
		return j.Weight * EffectiveThroughput(j, eq) * j.Scale
	})
}

// MinMakespan solves the §4.1 makespan policy. Minimizing
// max_j num_steps_j / thr(j,A) equals maximizing θ = min_j thr(j,A)/steps_j,
// the same epigraph LP with another denominator; the resulting makespan is
// 1/θ*.
func MinMakespan(jobs []Job, c Cluster, opts lp.Options) (*Allocation, error) {
	return solveEpigraph(jobs, c, opts, "makespan", func(j Job) float64 { return j.NumSteps })
}

// solveEpigraph maximizes t subject to t ≤ thr(j,A)/denom(j) for every job
// whose denominator is positive, over the solo time-fraction polytope. Both
// LP policies are this model; the variable and row order is theirs.
func solveEpigraph(jobs []Job, c Cluster, opts lp.Options, name string, denom func(Job) float64) (*Allocation, error) {
	if len(jobs) == 0 {
		return emptyAllocation(), nil
	}
	r := c.NumTypes()
	p := lp.NewModel(lp.Maximize)
	varOf := soloVars(p, len(jobs), r)
	tv := p.AddVariable(1, math.Inf(-1), lp.Inf, "t")

	addSoloCaps(p, jobs, c, varOf)
	for idx, j := range jobs {
		d := denom(j)
		if d <= 0 {
			continue
		}
		idxs := make([]int, 0, r+1)
		coefs := make([]float64, 0, r+1)
		for i := 0; i < r; i++ {
			idxs = append(idxs, varOf[idx][i])
			coefs = append(coefs, j.Throughput[i]/d)
		}
		idxs = append(idxs, tv)
		coefs = append(coefs, -1)
		p.AddConstraint(idxs, coefs, lp.GE, 0, "rate")
	}

	sol, err := p.SolveWithOptions(opts)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("cluster: %s LP %v", name, sol.Status)
	}
	return soloAllocation(jobs, r, varOf, sol, p.NumVariables()), nil
}

// ProportionalFairness solves the §4.1 sum-of-logs policy via the propfair
// price-discovery solver (the paper's custom-solver analogue).
func ProportionalFairness(jobs []Job, c Cluster, opts propfair.PDOptions) (*Allocation, error) {
	if len(jobs) == 0 {
		return emptyAllocation(), nil
	}
	prob := toPropfair(jobs, c)
	sol, err := prob.SolvePriceDiscovery(opts)
	if err != nil {
		return nil, err
	}
	return fromPropfair(jobs, sol), nil
}

// LogUtility evaluates Σ_j w_j·log(thr_j) for an allocation — the
// proportional-fairness objective plotted in Figure 7.
func LogUtility(jobs []Job, a *Allocation) float64 {
	obj := 0.0
	for idx, j := range jobs {
		if a.EffThr[idx] <= 0 {
			return math.Inf(-1)
		}
		obj += j.Weight * math.Log(a.EffThr[idx])
	}
	return obj
}

func toPropfair(jobs []Job, c Cluster) *propfair.Problem {
	prob := &propfair.Problem{
		T:   make([][]float64, len(jobs)),
		W:   make([]float64, len(jobs)),
		Z:   make([]float64, len(jobs)),
		Cap: append([]float64(nil), c.NumGPUs...),
	}
	for idx, j := range jobs {
		prob.T[idx] = j.Throughput
		prob.W[idx] = j.Weight
		prob.Z[idx] = j.Scale
	}
	return prob
}

func fromPropfair(jobs []Job, sol *propfair.Solution) *Allocation {
	a := &Allocation{X: sol.A, EffThr: make([]float64, len(jobs))}
	for idx, j := range jobs {
		a.EffThr[idx] = EffectiveThroughput(j, sol.A[idx])
	}
	return a
}

func emptyAllocation() *Allocation {
	return &Allocation{X: [][]float64{}, EffThr: []float64{}}
}

func soloVars(p lp.Builder, n, r int) [][]int {
	varOf := make([][]int, n)
	for j := 0; j < n; j++ {
		varOf[j] = make([]int, r)
		for i := 0; i < r; i++ {
			varOf[j][i] = p.AddVariable(0, 0, 1, "")
		}
	}
	return varOf
}

func addSoloCaps(p lp.Builder, jobs []Job, c Cluster, varOf [][]int) {
	r := c.NumTypes()
	for idx := range jobs {
		coef := make([]float64, r)
		for i := range coef {
			coef[i] = 1
		}
		p.AddConstraint(varOf[idx], coef, lp.LE, 1, "time")
	}
	for i := 0; i < r; i++ {
		idxs := make([]int, len(jobs))
		coefs := make([]float64, len(jobs))
		for idx, j := range jobs {
			idxs[idx] = varOf[idx][i]
			coefs[idx] = j.Scale
		}
		p.AddConstraint(idxs, coefs, lp.LE, c.NumGPUs[i], "gpus")
	}
}

func soloAllocation(jobs []Job, r int, varOf [][]int, sol *lp.Solution, lpVars int) *Allocation {
	a := &Allocation{
		X:           make([][]float64, len(jobs)),
		EffThr:      make([]float64, len(jobs)),
		LPVariables: lpVars,
	}
	for idx, j := range jobs {
		a.X[idx] = make([]float64, r)
		for i := 0; i < r; i++ {
			a.X[idx][i] = sol.X[varOf[idx][i]]
		}
		a.EffThr[idx] = EffectiveThroughput(j, a.X[idx])
	}
	return a
}
