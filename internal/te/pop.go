package te

import (
	"math/rand"

	"pop/internal/core"
	"pop/internal/graph"
	"pop/internal/lp"
	"pop/internal/tm"
	"pop/internal/topo"
)

// SolvePOP applies the POP procedure to a TE instance:
//
//  1. Optional client splitting (Algorithm 2) with threshold opts.SplitT,
//     halving the largest demands into virtual commodities — needed for
//     skewed (Poisson) traffic where a few commodities dominate.
//  2. Resource splitting: every sub-problem sees the whole topology with
//     every link at 1/k capacity. The paper shows (Figure 15) that sharding
//     the topology instead collapses total flow, because commodities must
//     use the links between their specific sites.
//  3. Random partition of the (virtual) commodities into k sub-problems.
//  4. Map: solve each sub-problem LP, in parallel when opts.Parallel.
//  5. Reduce: concatenate path flows, summing virtual commodities back onto
//     their original demands.
//
// The coalesced allocation is feasible by construction (capacities were
// pre-divided); VerifyFeasible is cheap and tests assert it.
func SolvePOP(inst *Instance, obj Objective, opts core.Options, lpOpts lp.Options) (*Allocation, error) {
	return solvePOP(inst, opts, nil, true, func(sub *Instance, k int) (*Allocation, error) {
		return solveScaled(sub, obj, float64(k), lpOpts)
	})
}

// amount is a commodity's size: what partitions balance and Algorithm 2
// halves.
func amount(d tm.Demand) float64 { return d.Amount }

// solvePOP is POP over a TE instance's commodities for any sub-solver: the
// runner splits and partitions the demands (by groups when given, else by
// opts.Strategy), each group becomes a sub-instance that reuses its
// demands' precomputed paths, solve runs on it knowing k, and the flows are
// summed back onto the original demands. byPath says which flows solve
// reports: an LP sub-solver expresses everything in PathFlow; NCFlow only
// fills Flow and EdgeFlow.
func solvePOP(inst *Instance, opts core.Options, groups func(k int) [][]int, byPath bool,
	solve func(sub *Instance, k int) (*Allocation, error)) (*Allocation, error) {
	spec := core.Spec[tm.Demand]{
		Clients: inst.Demands,
		Load:    amount,
		Split: func(d tm.Demand) (tm.Demand, tm.Demand) {
			d.Amount /= 2
			return d, d
		},
		Groups: groups,
	}
	subs, allocs, err := core.Run(spec, opts, func(s core.Sub[tm.Demand]) (*Allocation, error) {
		sub := &Instance{Topo: inst.Topo, NumPaths: inst.NumPaths, Demands: s.Clients}
		sub.Paths = make([][]*graph.Path, len(s.Orig))
		for t, j := range s.Orig {
			sub.Paths[t] = inst.Paths[j]
		}
		return solve(sub, s.K)
	})
	if err != nil {
		return nil, err
	}

	out := newAllocation(inst)
	for p, s := range subs {
		sa := allocs[p]
		out.LPVariables += sa.LPVariables
		if byPath {
			for t, j := range s.Orig {
				for pi, f := range sa.PathFlow[t] {
					out.PathFlow[j][pi] += f
				}
			}
			continue
		}
		for t, j := range s.Orig {
			out.Flow[j] += sa.Flow[t]
		}
		for e, f := range sa.EdgeFlow {
			out.EdgeFlow[e] += f
		}
	}
	if byPath {
		out.finalize(inst)
	} else {
		out.totals(inst)
	}
	return out, nil
}

// SolveSharded is the Figure-15 ablation: POP *without* resource splitting.
// The topology's links are randomly partitioned into k disjoint
// sub-networks, each link appearing (at full capacity) in exactly one
// sub-problem; commodities are partitioned randomly as usual. Because a
// commodity's useful links often land in other sub-problems, total flow
// collapses as k grows — which is the point of the ablation.
func SolveSharded(inst *Instance, obj Objective, opts core.Options, lpOpts lp.Options) (*Allocation, error) {
	g := inst.Topo.G
	// The runner deals partitioned resources round-robin by index; dealing
	// them out of a seeded shuffle is the random edge partition.
	edgeOrder := rand.New(rand.NewSource(opts.Seed + 1)).Perm(len(g.Edges))
	spec := core.Spec[tm.Demand]{
		Clients:   inst.Demands,
		Load:      amount,
		Resources: len(g.Edges),
	}
	subs, allocs, err := core.Run(spec, opts, func(s core.Sub[tm.Demand]) (*Allocation, error) {
		// The sub-graph holds only this partition's edges, so its edge se is
		// original edge edgeOrder[s.Resources[se]].
		subG := graph.New(g.N)
		for _, r := range s.Resources {
			e := g.Edges[edgeOrder[r]]
			subG.AddEdge(e.From, e.To, e.Capacity, e.Weight)
		}
		subTopo := &topo.Topology{Name: inst.Topo.Name, G: subG, Coords: inst.Topo.Coords}
		return SolveLP(NewInstance(subTopo, s.Clients, inst.NumPaths), obj, lpOpts)
	})
	if err != nil {
		return nil, err
	}

	// Coalesce onto the original instance. Path indices differ (paths were
	// recomputed in the sub-graph), so we only coalesce flows and edge
	// loads, not PathFlow.
	out := newAllocation(inst)
	out.MinFraction = 1
	for p, s := range subs {
		sa := allocs[p]
		out.LPVariables += sa.LPVariables
		for t, j := range s.Orig {
			out.Flow[j] = sa.Flow[t]
			out.TotalFlow += sa.Flow[t]
		}
		for se, f := range sa.EdgeFlow {
			out.EdgeFlow[edgeOrder[s.Resources[se]]] += f
		}
	}
	for j, d := range inst.Demands {
		if d.Amount > 0 {
			frac := out.Flow[j] / d.Amount
			if frac < out.MinFraction {
				out.MinFraction = frac
			}
		}
	}
	return out, nil
}
