package cluster

import (
	"fmt"
	"math"
	"slices"

	"pop/internal/lp"
)

// MaxMinFairness solves the heterogeneity-aware Least Attained Service
// policy from §4.1 (no space sharing):
//
//	maximize  min_j  (1/w_j) · thr(j,A) / (thr(j,A_equal) · z_j)
//	s.t.      0 ≤ A_ji ≤ 1,  Σ_i A_ji ≤ 1,  Σ_j A_ji·z_j ≤ NumGPUs_i
//
// expressed as an epigraph LP with a free auxiliary t.
func MaxMinFairness(jobs []Job, c Cluster, opts lp.Options) (*Allocation, error) {
	return solveEpigraph(jobs, c, opts, "max-min", MaxMinDenominator(jobs, c))
}

// MinMakespan solves the §4.1 makespan policy. Minimizing
// max_j num_steps_j / thr(j,A) equals maximizing θ = min_j thr(j,A)/steps_j,
// the same epigraph LP with another denominator; the resulting makespan is
// 1/θ*.
func MinMakespan(jobs []Job, c Cluster, opts lp.Options) (*Allocation, error) {
	return solveEpigraph(jobs, c, opts, "makespan", MakespanDenominator)
}

// solveEpigraph solves SoloModel and reads the allocation off its layout.
func solveEpigraph(jobs []Job, c Cluster, opts lp.Options, name string, denom func(Job) float64) (*Allocation, error) {
	if len(jobs) == 0 {
		return emptyAllocation(), nil
	}
	m := SoloModel(jobs, c, denom)
	sol, err := m.SolveWithOptions(opts)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("cluster: %s LP %v", name, sol.Status)
	}
	r := c.NumTypes()
	a := &Allocation{
		X:           make([][]float64, len(jobs)),
		EffThr:      make([]float64, len(jobs)),
		LPVariables: m.NumVariables(),
	}
	for idx, j := range jobs {
		a.X[idx] = slices.Clone(sol.X[idx*r : (idx+1)*r])
		a.EffThr[idx] = EffectiveThroughput(j, a.X[idx])
	}
	return a, nil
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

func emptyAllocation() *Allocation {
	return &Allocation{X: [][]float64{}, EffThr: []float64{}}
}
