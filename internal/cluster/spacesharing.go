package cluster

import (
	"fmt"
	"slices"

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
	m := lp.NewModel(lp.Maximize)
	slots := SpaceSharingModel(m, jobs, c)
	sol, err := m.SolveWithOptions(opts)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("cluster: space-sharing LP %v", sol.Status)
	}
	r := c.NumTypes()
	a := &Allocation{
		Pairs:       slots,
		PairX:       make([][]float64, len(slots)),
		EffThr:      make([]float64, len(jobs)),
		LPVariables: m.NumVariables(),
	}
	for q := range slots {
		a.PairX[q] = slices.Clone(sol.X[q*r : (q+1)*r])
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
		if pr.J2 == NoPartner {
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
