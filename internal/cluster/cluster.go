// Package cluster implements the GPU cluster scheduling case study from
// §4.1 of the POP paper, modelled on Gavel (Narayanan et al., OSDI 20):
// heterogeneity-aware allocation of jobs to GPU types by time fraction,
// under the LP policies max-min fairness (optionally with space sharing)
// and minimize-makespan, plus the Gandiva-style greedy heuristic baseline
// and POP adapters for every policy. Proportional fairness (Fig 7) is
// solved by price discovery in package price; LogUtility scores it here.
//
// Each LP is written once, here. SoloModel builds the epigraph LP behind
// MaxMinFairness and MinMakespan (which differ only in the rate-row
// denominator: MaxMinDenominator, MakespanDenominator);
// SpaceSharingModel builds the space-sharing LP over Slots. Both use one
// block layout: a job's (or slot's) r time-fraction variables in job (or
// slot) order, then the epigraph t; a time row and a rate row per job in
// job order, then one capacity row per GPU type. The batch policies build,
// solve and read that model; package online's engine builds the same model
// for a sub-problem, splices its blocks as jobs come and go, and rewrites
// its data with RateRow and SlotTerms.
//
// Throughput data comes from a synthetic oracle with realistic relative
// speeds across GPU generations (the paper's measured throughputs are not
// redistributable); what matters for reproducing the paper's claims is the
// heterogeneity structure — jobs prefer different GPU types by different
// ratios — which the oracle preserves.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
)

// Cluster describes the available GPUs by type. Counts are float64 so POP
// sub-clusters can hold fractional shares while keeping the coalesced
// allocation feasible.
type Cluster struct {
	TypeNames []string
	NumGPUs   []float64
}

// NewCluster builds a cluster with the canonical Gavel GPU types.
func NewCluster(k80, p100, v100 float64) Cluster {
	return Cluster{
		TypeNames: []string{"K80", "P100", "V100"},
		NumGPUs:   []float64{k80, p100, v100},
	}
}

// NumTypes returns the number of GPU types.
func (c Cluster) NumTypes() int { return len(c.NumGPUs) }

// TotalGPUs sums GPUs over all types.
func (c Cluster) TotalGPUs() float64 {
	s := 0.0
	for _, v := range c.NumGPUs {
		s += v
	}
	return s
}

// Split returns the sub-cluster with 1/k of every GPU type (POP's resource
// partitioning for cluster scheduling: each sub-cluster has an equal number
// of resources of each type).
func (c Cluster) Split(k int) Cluster {
	out := Cluster{TypeNames: c.TypeNames, NumGPUs: make([]float64, len(c.NumGPUs))}
	for i, v := range c.NumGPUs {
		out.NumGPUs[i] = v / float64(k)
	}
	return out
}

// Job is a runnable training job (a POP client).
type Job struct {
	ID int
	// Throughput[i] is steps/sec on GPU type i when running alone.
	Throughput []float64
	// Weight is the fair-share weight w_j.
	Weight float64
	// Scale is z_j, the number of GPUs the job occupies when scheduled.
	Scale float64
	// NumSteps is the remaining iterations (drives makespan and JCT).
	NumSteps float64
	// MemFrac in (0,1) is the job's GPU memory footprint fraction; it
	// drives space-sharing interference.
	MemFrac float64
	// Priority is an optional attribute for priority-weighted policies.
	Priority float64
}

// CheckJobs holds jobs from outside the wire (a restored state file) to the
// rules a worker holds wire jobs to: one throughput per GPU type of a pool
// numTypes wide, and every number finite and ≥ 0. The policies index
// Throughput by GPU type, so a short row would panic the first round.
func CheckJobs(jobs []Job, numTypes int) error {
	for _, j := range jobs {
		if len(j.Throughput) != numTypes {
			return fmt.Errorf("job %d: %d throughputs for %d gpu types", j.ID, len(j.Throughput), numTypes)
		}
		for _, v := range append([]float64{j.Weight, j.Scale, j.NumSteps, j.MemFrac, j.Priority}, j.Throughput...) {
			if !(v >= 0) || math.IsInf(v, 1) {
				return fmt.Errorf("job %d: value %v is not finite and ≥ 0", j.ID, v)
			}
		}
	}
	return nil
}

// GenerateJobs synthesizes n jobs with Gavel-like heterogeneity: each job
// model has a base K80 throughput and distinct P100/V100 speedups, so
// different jobs prefer different GPU types by different ratios.
// multiGPUFrac of jobs request 2 or 4 GPUs (set 0 for space-sharing
// experiments, which pair only single-GPU jobs).
func GenerateJobs(n int, seed int64, multiGPUFrac float64) []Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]Job, n)
	for j := 0; j < n; j++ {
		base := math.Exp(rng.NormFloat64() * 0.5) // lognormal base steps/sec
		p100 := base * (1.6 + 1.4*rng.Float64())
		v100 := base * (2.5 + 3.5*rng.Float64())
		scale := 1.0
		if rng.Float64() < multiGPUFrac {
			if rng.Float64() < 0.5 {
				scale = 2
			} else {
				scale = 4
			}
		}
		jobs[j] = Job{
			ID:         j,
			Throughput: []float64{base, p100, v100},
			Weight:     1,
			Scale:      scale,
			NumSteps:   math.Exp(rng.NormFloat64()*0.8) * 40000,
			MemFrac:    0.15 + 0.7*rng.Float64(),
			Priority:   1,
		}
	}
	return jobs
}

// EqualShare computes the paper's A_equal: the time fraction a job would
// receive on each type under an equal share of the cluster, used to
// normalize effective throughputs in the max-min fairness objective. Every
// job receives NumGPUs_i/Σ_j z_j time share of type i, clamped so the
// per-job total stays within 1 — the same row for every job, so it is
// computed (and returned) once.
func EqualShare(jobs []Job, c Cluster) []float64 {
	totalZ := 0.0
	for _, j := range jobs {
		totalZ += j.Scale
	}
	return EqualShareOf(totalZ, c)
}

// EqualShareOf is EqualShare for any population whose scales sum to totalZ.
func EqualShareOf(totalZ float64, c Cluster) []float64 {
	if totalZ == 0 {
		totalZ = 1
	}
	row := make([]float64, c.NumTypes())
	sum := 0.0
	for i := range row {
		row[i] = c.NumGPUs[i] / totalZ
		sum += row[i]
	}
	if sum > 1 {
		for i := range row {
			row[i] /= sum
		}
	}
	return row
}

// EffectiveThroughput computes Σ_i T_ji·A_ji for a solo allocation row.
func EffectiveThroughput(j Job, row []float64) float64 {
	thr := 0.0
	for i, a := range row {
		thr += j.Throughput[i] * a
	}
	return thr
}

// Allocation is the result of a scheduling policy. Exactly one of X (solo
// time fractions) or Pairs/PairX (space sharing) is populated; EffThr is
// always populated.
type Allocation struct {
	// X[j][i] is the time fraction job j spends alone on type i.
	X [][]float64
	// Pairs lists job pairs (J2 = -1 for a solo slot); PairX[q][i] is the
	// time fraction pair q runs on type i.
	Pairs []Pair
	PairX [][]float64
	// EffThr[j] is the effective throughput of job j under this allocation.
	EffThr []float64
	// LPVariables is the variable count of the LP(s) solved (summed across
	// POP sub-problems); 0 for heuristics.
	LPVariables int
}

// Pair identifies two jobs sharing a GPU (J2 == -1 means J1 runs alone).
type Pair struct {
	J1, J2 int
}

// NormalizedRatios returns each job's effective throughput normalized by
// its weight, equal-share throughput, and scale — the quantity the max-min
// fairness policy maximizes the minimum of.
func NormalizedRatios(jobs []Job, c Cluster, a *Allocation) []float64 {
	eq := EqualShare(jobs, c)
	out := make([]float64, len(jobs))
	for idx, j := range jobs {
		eqThr := EffectiveThroughput(j, eq)
		if eqThr <= 0 {
			continue
		}
		out[idx] = a.EffThr[idx] / (j.Weight * eqThr * j.Scale)
	}
	return out
}

// MinMean summarizes a slice as (min, mean).
func MinMean(xs []float64) (min, mean float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min = math.Inf(1)
	for _, v := range xs {
		if v < min {
			min = v
		}
		mean += v
	}
	return min, mean / float64(len(xs))
}

// Makespan returns max_j NumSteps_j / EffThr_j; +Inf if any job is starved.
func Makespan(jobs []Job, a *Allocation) float64 {
	ms := 0.0
	for idx, j := range jobs {
		if a.EffThr[idx] <= 0 {
			return math.Inf(1)
		}
		ms = math.Max(ms, j.NumSteps/a.EffThr[idx])
	}
	return ms
}

// VerifyFeasible checks per-job time budgets and per-type GPU capacities.
func VerifyFeasible(jobs []Job, c Cluster, a *Allocation, tol float64) error {
	r := c.NumTypes()
	used := make([]float64, r)
	timeOf := make([]float64, len(jobs))
	switch {
	case a.X != nil:
		for idx, j := range jobs {
			for i := 0; i < r; i++ {
				v := a.X[idx][i]
				if v < -tol {
					return fmt.Errorf("cluster: negative fraction job %d type %d: %g", j.ID, i, v)
				}
				timeOf[idx] += v
				used[i] += v * j.Scale
			}
		}
	case a.PairX != nil:
		index := indexByID(jobs)
		for q, pr := range a.Pairs {
			for i := 0; i < r; i++ {
				v := a.PairX[q][i]
				if v < -tol {
					return fmt.Errorf("cluster: negative fraction pair %v type %d: %g", pr, i, v)
				}
				used[i] += v // each pair occupies one GPU
				timeOf[index[pr.J1]] += v
				if pr.J2 >= 0 {
					timeOf[index[pr.J2]] += v
				}
			}
		}
	default:
		return fmt.Errorf("cluster: allocation has neither X nor PairX")
	}
	for idx, tv := range timeOf {
		if tv > 1+tol {
			return fmt.Errorf("cluster: job %d time %g > 1", jobs[idx].ID, tv)
		}
	}
	for i := 0; i < r; i++ {
		if used[i] > c.NumGPUs[i]+tol*(1+c.NumGPUs[i]) {
			return fmt.Errorf("cluster: type %d used %g > %g", i, used[i], c.NumGPUs[i])
		}
	}
	return nil
}

func indexByID(jobs []Job) map[int]int {
	m := make(map[int]int, len(jobs))
	for idx, j := range jobs {
		m[j.ID] = idx
	}
	return m
}

// Interference returns the space-sharing throughput retention factor for
// two jobs sharing a GPU: close to 1 for memory-light pairs, degrading as
// combined footprints approach and exceed device memory. Mirrors the shape
// of Gavel/Gandiva's measured colocation penalties.
func Interference(a, b Job) float64 {
	combined := a.MemFrac + b.MemFrac
	kappa := 1 - 0.55*combined
	if combined > 1 {
		kappa -= 0.2 * (combined - 1)
	}
	return math.Max(0.25, kappa)
}
