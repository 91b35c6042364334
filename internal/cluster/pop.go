package cluster

import (
	"pop/internal/core"
	"pop/internal/lp"
)

// PolicyFunc solves a scheduling policy on one (sub-)instance.
type PolicyFunc func(jobs []Job, c Cluster, opts lp.Options) (*Allocation, error)

// SolvePOP applies POP to any allocation policy: the runner partitions the
// jobs into k groups (balancing Scale, so GPU demand balances), every
// sub-problem runs the unchanged policy on its jobs over a sub-cluster with
// 1/k of every GPU type, and the allocations are concatenated. The coalesced
// allocation is feasible by construction since sub-cluster capacities sum to
// the original.
func SolvePOP(jobs []Job, c Cluster, policy PolicyFunc, opts core.Options, lpOpts lp.Options) (*Allocation, error) {
	spec := core.Spec[Job]{Clients: jobs, Load: func(j Job) float64 { return j.Scale }}
	subs, allocs, err := core.Run(spec, opts, func(s core.Sub[Job]) (*Allocation, error) {
		return policy(s.Clients, c.Split(s.K), lpOpts)
	})
	if err != nil {
		return nil, err
	}
	return mergeAllocations(len(jobs), subs, allocs), nil
}

// SolvePOPSpaceSharing applies POP to the pair-variable space-sharing
// policy. Pairs only form within a sub-problem, which is where the paper's
// §5.3 cubic speedup comes from: sub-problems have (n/k)² pair variables
// instead of n².
func SolvePOPSpaceSharing(jobs []Job, c Cluster, opts core.Options, lpOpts lp.Options) (*Allocation, error) {
	return SolvePOP(jobs, c, MaxMinFairnessSpaceSharing, opts, lpOpts)
}

// mergeAllocations coalesces per-partition allocations onto the original
// job order (POP's reduce step). Solo and pair allocations are both
// supported; partitions must agree on the representation.
func mergeAllocations(n int, subs []core.Sub[Job], allocs []*Allocation) *Allocation {
	out := &Allocation{EffThr: make([]float64, n)}
	solo := allocs[0].X != nil
	if solo {
		out.X = make([][]float64, n)
	}
	for p, s := range subs {
		sa := allocs[p]
		out.LPVariables += sa.LPVariables
		for t, j := range s.Orig {
			out.EffThr[j] = sa.EffThr[t]
			if solo {
				out.X[j] = sa.X[t]
			}
		}
		if !solo {
			out.Pairs = append(out.Pairs, sa.Pairs...)
			out.PairX = append(out.PairX, sa.PairX...)
		}
	}
	return out
}
