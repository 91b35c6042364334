package cluster

import (
	"math"
	"slices"

	"pop/internal/lp"
)

// MaxMinDenominator returns max-min fairness's rate-row denominator over
// jobs on c: w_j · thr(j, A_equal) · z_j, where A_equal is jobs' equal
// share of c.
func MaxMinDenominator(jobs []Job, c Cluster) func(Job) float64 {
	eq := EqualShare(jobs, c)
	return func(j Job) float64 { return j.Weight * EffectiveThroughput(j, eq) * j.Scale }
}

// MakespanDenominator is the makespan policy's rate-row denominator: the
// job's remaining steps.
func MakespanDenominator(j Job) float64 { return j.NumSteps }

// RateRow writes a job's rate-row coefficients thr[k]/denom into coefs and
// returns t's coefficient, -1. A job whose denominator is ≤ 0 gets the
// all-zero row — the vacuous 0 ≥ 0, which keeps the layout without
// constraining t.
func RateRow(thr []float64, denom float64, coefs []float64) float64 {
	if denom <= 0 {
		clear(coefs)
		return 0
	}
	for k, v := range thr {
		coefs[k] = v / denom
	}
	return -1
}

// CapEpigraph sets the bounds of an epigraph model's t (variable tv):
// free while some rate row constrains it, at most 0 when none does. With
// every denominator ≤ 0 (no throughput, no scale, no steps left) t would be
// unbounded and the LP with it; capped, the LP solves at t = 0 over the
// same polytope. A model with a constraining job keeps its free t, so its
// solve does not change.
func CapEpigraph(m *lp.Model, tv int, constrained bool) {
	ub := lp.Inf
	if !constrained {
		ub = 0
	}
	m.SetBounds(tv, math.Inf(-1), ub)
}

// SoloModel builds into m the solo epigraph LP: maximize t subject to
// t ≤ thr(j,A)/denom(j) for every job, over the solo time-fraction
// polytope. MaxMinFairness and MinMakespan are this model with their
// denominators. m must be empty and maximizing: new from
// lp.NewModel(lp.Maximize), or such a model after Reset.
//
// Layout, for n jobs over r GPU types: job j's r time fractions are
// variables j·r … j·r+r-1 and t is variable n·r; job j's time row (Σ_i
// A_ji ≤ 1) is row 2j and its rate row (Σ_i T_ji/denom·A_ji − t ≥ 0, all
// zeros when denom ≤ 0) row 2j+1; the r capacity rows (Σ_j z_j·A_ji ≤
// NumGPUs_i) follow. t is capped at 0 when no rate row constrains it
// (CapEpigraph).
func SoloModel(m *lp.Model, jobs []Job, c Cluster, denom func(Job) float64) {
	r := c.NumTypes()
	m.AddVariables(len(jobs)*r, 0, 0, 1)
	tv := m.AddVariable(1, math.Inf(-1), lp.Inf, "t")
	idxs := make([]int, r+1)
	ones := make([]float64, r)
	coefs := make([]float64, r+1)
	for i := range ones {
		ones[i] = 1
	}
	load := make([]float64, len(jobs))
	constrained := false
	for idx, j := range jobs {
		for i := 0; i < r; i++ {
			idxs[i] = idx*r + i
		}
		idxs[r] = tv
		m.AddConstraint(idxs[:r], ones, lp.LE, 1, "time")
		coefs[r] = RateRow(j.Throughput, denom(j), coefs[:r])
		constrained = constrained || coefs[r] != 0
		m.AddConstraint(idxs, coefs, lp.GE, 0, "rate")
		load[idx] = j.Scale
	}
	addCapacityRows(m, c, load)
	CapEpigraph(m, tv, constrained)
}

// Slots enumerates the space-sharing LP's slots over jobs: a solo slot per
// job in job order, then a shared slot per pair of single-GPU jobs in i<j
// order.
func Slots(jobs []Job) []Pair {
	slots := make([]Pair, 0, len(jobs))
	for _, j := range jobs {
		slots = append(slots, Pair{J1: j.ID, J2: NoPartner})
	}
	for a := range jobs {
		if jobs[a].Scale != 1 {
			continue
		}
		for b := a + 1; b < len(jobs); b++ {
			if jobs[b].Scale == 1 {
				slots = append(slots, Pair{J1: jobs[a].ID, J2: jobs[b].ID})
			}
		}
	}
	return slots
}

// SlotTerms gathers the space-sharing LP's data over slots: per job, the
// variable of every slot containing it on every GPU type (slot q on type i
// is variable q·r+i, in slot order) and the job's throughput there — full
// on its solo slot, interference-reduced on a shared one; per slot, the
// GPUs it occupies: z_j solo, 1 shared.
func SlotTerms(jobs []Job, slots []Pair, r int) (vars [][]int, thr [][]float64, load []float64) {
	index := indexByID(jobs)
	vars = make([][]int, len(jobs))
	thr = make([][]float64, len(jobs))
	load = make([]float64, len(slots))
	add := func(a, q int, kappa float64) {
		for i := 0; i < r; i++ {
			vars[a] = append(vars[a], q*r+i)
			thr[a] = append(thr[a], jobs[a].Throughput[i]*kappa)
		}
	}
	for q, s := range slots {
		a := index[s.J1]
		if s.J2 == NoPartner {
			add(a, q, 1)
			load[q] = jobs[a].Scale
			continue
		}
		b := index[s.J2]
		kappa := Interference(jobs[a], jobs[b])
		add(a, q, kappa)
		add(b, q, kappa)
		load[q] = 1
	}
	return vars, thr, load
}

// SpaceSharingModel builds into m, an empty maximizing model as SoloModel
// takes, the max-min space-sharing LP over Slots(jobs), and returns the
// slots.
//
// Layout, for s slots over r GPU types: slot q's r time fractions are
// variables q·r … q·r+r-1 and t is variable s·r; job j's time row (over
// every slot containing it) is row 2j and its rate row row 2j+1, as in
// SoloModel; the r capacity rows follow.
func SpaceSharingModel(m *lp.Model, jobs []Job, c Cluster) []Pair {
	r := c.NumTypes()
	slots := Slots(jobs)
	vars, thr, load := SlotTerms(jobs, slots, r)
	m.AddVariables(len(slots)*r, 0, 0, 1)
	tv := m.AddVariable(1, math.Inf(-1), lp.Inf, "t")
	denom := MaxMinDenominator(jobs, c)
	constrained := false
	for idx, j := range jobs {
		nt := len(vars[idx])
		ones := make([]float64, nt)
		for t := range ones {
			ones[t] = 1
		}
		m.AddConstraint(vars[idx], ones, lp.LE, 1, "time")
		coefs := make([]float64, nt+1)
		coefs[nt] = RateRow(thr[idx], denom(j), coefs[:nt])
		constrained = constrained || coefs[nt] != 0
		m.AddConstraint(append(slices.Clip(vars[idx]), tv), coefs, lp.GE, 0, "rate")
	}
	addCapacityRows(m, c, load)
	CapEpigraph(m, tv, constrained)
	return slots
}

// addCapacityRows appends one row per GPU type i: Σ_q load[q]·x[q·r+i] ≤
// NumGPUs_i.
func addCapacityRows(m *lp.Model, c Cluster, load []float64) {
	r := c.NumTypes()
	idxs := make([]int, len(load))
	for i := 0; i < r; i++ {
		for q := range idxs {
			idxs[q] = q*r + i
		}
		m.AddConstraint(idxs, load, lp.LE, c.NumGPUs[i], "gpus")
	}
}
