package lb

import (
	"math/rand"
	"sort"

	"pop/internal/core"
	"pop/internal/milp"
)

// SolvePOP applies the POP procedure to a balancing instance: servers are
// partitioned evenly into k sub-clusters, shards are dealt so that every
// subset carries (approximately) the same total load — the paper's §4.3
// requirement — and each sub-problem is solved with the unchanged MILP
// formulation against its own sub-average load band. Shards whose current
// server lands in a different sub-problem are forced to move, which is why
// POP's movement count grows with k on small instances (visible in
// Figure 13).
func SolvePOP(inst *Instance, opts core.Options, milpOpts milp.Options) (*Assignment, error) {
	n, m := len(inst.Shards), len(inst.Servers)
	spec := core.Spec[Shard]{
		Clients:   inst.Shards,
		Groups:    func(k int) [][]int { return balancedShardPartition(inst, k, opts.Seed) },
		Resources: m,
	}
	subs, parts, err := core.Run(spec, opts, func(s core.Sub[Shard]) (*Assignment, error) {
		sub := &Instance{TolFrac: inst.TolFrac, Shards: s.Clients, Placement: make([][]bool, len(s.Clients))}
		for _, j := range s.Resources {
			sub.Servers = append(sub.Servers, inst.Servers[j])
		}
		for si, i := range s.Orig {
			sub.Placement[si] = make([]bool, len(s.Resources))
			for sj, j := range s.Resources {
				sub.Placement[si][sj] = inst.Placement[i][j]
			}
		}
		return SolveMILP(sub, milpOpts)
	})
	if err != nil {
		return nil, err
	}

	out := &Assignment{
		Frac:    make([][]float64, n),
		Placed:  make([][]bool, n),
		Optimal: true,
	}
	for i := 0; i < n; i++ {
		out.Frac[i] = make([]float64, m)
		out.Placed[i] = make([]bool, m)
	}
	for p, s := range subs {
		sa := parts[p]
		out.Variables += sa.Variables
		out.Optimal = out.Optimal && sa.Optimal
		out.Search.Add(sa.Search)
		for si, i := range s.Orig {
			for sj, j := range s.Resources {
				out.Frac[i][j] = sa.Frac[si][sj]
				out.Placed[i][j] = sa.Placed[si][sj]
			}
		}
	}
	finalizeAssignment(inst, out)
	return out, nil
}

// balancedShardPartition deals shards into k groups equalizing total load:
// shards are shuffled, then sorted by load descending and greedily assigned
// to the lightest group with room (LPT scheduling), keeping group sizes
// within ±1 of n/k.
func balancedShardPartition(inst *Instance, k int, seed int64) [][]int {
	n := len(inst.Shards)
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(n)
	sort.SliceStable(order, func(a, b int) bool {
		return inst.Shards[order[a]].Load > inst.Shards[order[b]].Load
	})
	groups := make([][]int, k)
	sums := make([]float64, k)
	capPer := (n + k - 1) / k
	for _, i := range order {
		best := -1
		for p := 0; p < k; p++ {
			if len(groups[p]) >= capPer {
				continue
			}
			if best < 0 || sums[p] < sums[best] {
				best = p
			}
		}
		if best < 0 {
			best = 0
		}
		groups[best] = append(groups[best], i)
		sums[best] += inst.Shards[i].Load
	}
	return groups
}
