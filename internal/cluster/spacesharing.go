package cluster

import (
	"fmt"
	"math"

	"pop/internal/lp"
)

// MaxMinFairnessSpaceSharing solves the max-min fairness policy with space
// sharing (§4.1): allocation variables exist for every job pair (and every
// solo job), so two jobs can run concurrently on one GPU with reduced
// throughputs. The variable count grows quadratically in the number of jobs
// — the regime of Figure 2, where POP's k² (here k³, per §5.3) variable
// reduction matters most.
//
// Space sharing is restricted to single-GPU jobs (Scale == 1), matching
// Gavel; multi-GPU jobs participate solo.
func MaxMinFairnessSpaceSharing(jobs []Job, c Cluster, opts lp.Options) (*Allocation, error) {
	if len(jobs) == 0 {
		return emptyAllocation(), nil
	}
	r := c.NumTypes()
	eq := EqualShare(jobs, c)

	// Enumerate slots: one solo slot per job, one shared slot per pair of
	// single-GPU jobs.
	var pairs []Pair
	for idx := range jobs {
		pairs = append(pairs, Pair{J1: jobs[idx].ID, J2: -1})
	}
	for a := 0; a < len(jobs); a++ {
		if jobs[a].Scale != 1 {
			continue
		}
		for b := a + 1; b < len(jobs); b++ {
			if jobs[b].Scale != 1 {
				continue
			}
			pairs = append(pairs, Pair{J1: jobs[a].ID, J2: jobs[b].ID})
		}
	}
	index := indexByID(jobs)

	p := lp.NewProblem(lp.Maximize)
	// varOf[q][i] is the time fraction of slot q on type i.
	varOf := make([][]int, len(pairs))
	for q := range pairs {
		varOf[q] = make([]int, r)
		for i := 0; i < r; i++ {
			varOf[q][i] = p.AddVariable(0, 0, 1, "")
		}
	}
	tv := p.AddVariable(1, math.Inf(-1), lp.Inf, "t")

	// Per-job time budget and per-job fairness rows are built from the
	// slots containing each job.
	type term struct {
		v    int
		thr  float64 // effective throughput coefficient for the job
		load float64 // GPU usage of the slot (z for solo, 1 for shared)
	}
	jobTerms := make([][]term, len(jobs))
	for q, pr := range pairs {
		a := index[pr.J1]
		if pr.J2 < 0 {
			for i := 0; i < r; i++ {
				jobTerms[a] = append(jobTerms[a], term{varOf[q][i], jobs[a].Throughput[i], jobs[a].Scale})
			}
			continue
		}
		b := index[pr.J2]
		kappa := Interference(jobs[a], jobs[b])
		for i := 0; i < r; i++ {
			jobTerms[a] = append(jobTerms[a], term{varOf[q][i], jobs[a].Throughput[i] * kappa, 1})
			jobTerms[b] = append(jobTerms[b], term{varOf[q][i], jobs[b].Throughput[i] * kappa, 1})
		}
	}

	for idx, j := range jobs {
		idxs := make([]int, 0, len(jobTerms[idx]))
		ones := make([]float64, 0, len(jobTerms[idx]))
		for _, t := range jobTerms[idx] {
			idxs = append(idxs, t.v)
			ones = append(ones, 1)
		}
		p.AddConstraint(idxs, ones, lp.LE, 1, "time")

		eqThr := EffectiveThroughput(j, eq)
		if eqThr <= 0 {
			continue
		}
		fIdx := make([]int, 0, len(jobTerms[idx])+1)
		fCoef := make([]float64, 0, len(jobTerms[idx])+1)
		for _, t := range jobTerms[idx] {
			fIdx = append(fIdx, t.v)
			fCoef = append(fCoef, t.thr/(j.Weight*eqThr*j.Scale))
		}
		fIdx = append(fIdx, tv)
		fCoef = append(fCoef, -1)
		p.AddConstraint(fIdx, fCoef, lp.GE, 0, "fair")
	}

	// Per-type GPU capacity: solo slot of job j consumes z_j GPUs; shared
	// slots consume 1.
	for i := 0; i < r; i++ {
		idxs := make([]int, 0, len(pairs))
		coefs := make([]float64, 0, len(pairs))
		for q, pr := range pairs {
			load := 1.0
			if pr.J2 < 0 {
				load = jobs[index[pr.J1]].Scale
			}
			idxs = append(idxs, varOf[q][i])
			coefs = append(coefs, load)
		}
		p.AddConstraint(idxs, coefs, lp.LE, c.NumGPUs[i], "gpus")
	}

	sol, err := p.SolveWithOptions(opts)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("cluster: space-sharing LP %v", sol.Status)
	}

	a := &Allocation{
		Pairs:       pairs,
		PairX:       make([][]float64, len(pairs)),
		EffThr:      make([]float64, len(jobs)),
		LPVariables: p.NumVariables(),
	}
	for q := range pairs {
		a.PairX[q] = make([]float64, r)
		for i := 0; i < r; i++ {
			a.PairX[q][i] = sol.X[varOf[q][i]]
		}
	}
	FillPairEffThr(jobs, a)
	return a, nil
}

// FillPairEffThr recomputes EffThr from Pairs/PairX, applying the
// interference factor to shared slots. jobs must cover every job referenced
// by a.Pairs; extra jobs are left at zero throughput. The online
// space-sharing adapter composes per-partition allocations and reuses this
// to score them consistently with the batch policy.
func FillPairEffThr(jobs []Job, a *Allocation) {
	index := indexByID(jobs)
	for idx := range a.EffThr {
		a.EffThr[idx] = 0
	}
	for q, pr := range a.Pairs {
		ja := index[pr.J1]
		if pr.J2 < 0 {
			for i, f := range a.PairX[q] {
				a.EffThr[ja] += jobs[ja].Throughput[i] * f
			}
			continue
		}
		jb := index[pr.J2]
		kappa := Interference(jobs[ja], jobs[jb])
		for i, f := range a.PairX[q] {
			a.EffThr[ja] += jobs[ja].Throughput[i] * kappa * f
			a.EffThr[jb] += jobs[jb].Throughput[i] * kappa * f
		}
	}
}
