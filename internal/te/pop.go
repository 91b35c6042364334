package te

import (
	"pop/internal/core"
	"pop/internal/graph"
	"pop/internal/lp"
	"pop/internal/tm"
	"pop/internal/topo"
)

// vdem is a virtual commodity: a (possibly split) share of an original
// demand's traffic. Virtual demands reuse the original's precomputed paths.
type vdem struct {
	orig   int
	amount float64
}

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
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	virtual := splitDemands(inst, opts.SplitT)
	groups := core.Partition(len(virtual), opts.K, opts.Strategy, opts.Seed,
		func(i int) float64 { return virtual[i].amount })
	k := len(groups) // Partition clamps k to the commodity count

	subInsts := make([]*Instance, k)
	for p, g := range groups {
		sub := &Instance{Topo: inst.Topo, NumPaths: inst.NumPaths}
		sub.Demands = make([]tm.Demand, len(g))
		sub.Paths = make([][]*graph.Path, len(g))
		for t, vi := range g {
			v := virtual[vi]
			od := inst.Demands[v.orig]
			sub.Demands[t] = tm.Demand{Src: od.Src, Dst: od.Dst, Amount: v.amount}
			sub.Paths[t] = inst.Paths[v.orig]
		}
		subInsts[p] = sub
	}

	subAllocs := make([]*Allocation, k)
	err := core.ParallelMap(k, opts.Parallel, func(p int) error {
		a, err := solveScaled(subInsts[p], obj, float64(k), nil, lpOpts)
		subAllocs[p] = a
		return err
	})
	if err != nil {
		return nil, err
	}

	out := newAllocation(inst)
	for p, g := range groups {
		sa := subAllocs[p]
		out.LPVariables += sa.LPVariables
		for t, vi := range g {
			orig := virtual[vi].orig
			for pi, f := range sa.PathFlow[t] {
				out.PathFlow[orig][pi] += f
			}
		}
	}
	out.finalize(inst)
	return out, nil
}

func splitDemands(inst *Instance, t float64) []vdem {
	base := make([]vdem, len(inst.Demands))
	for j, d := range inst.Demands {
		base[j] = vdem{orig: j, amount: d.Amount}
	}
	if t <= 0 {
		return base
	}
	split := core.SplitClients(base, t,
		func(c vdem) float64 { return c.amount },
		func(c vdem) (vdem, vdem) {
			h := c.amount / 2
			return vdem{c.orig, h}, vdem{c.orig, h}
		})
	out := make([]vdem, len(split))
	for i, vc := range split {
		out[i] = vc.Client
	}
	return out
}

// SolveSharded is the Figure-15 ablation: POP *without* resource splitting.
// The topology's links are randomly partitioned into k disjoint
// sub-networks, each link appearing (at full capacity) in exactly one
// sub-problem; commodities are partitioned randomly as usual. Because a
// commodity's useful links often land in other sub-problems, total flow
// collapses as k grows — which is the point of the ablation.
func SolveSharded(inst *Instance, obj Objective, opts core.Options, lpOpts lp.Options) (*Allocation, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	g := inst.Topo.G
	// core.Partition clamps k to its client count; clamp to the smaller of
	// the two populations first so both partitions have the same k groups.
	k := min(opts.K, max(1, len(inst.Demands)), max(1, len(g.Edges)))

	edgeGroups := core.Partition(len(g.Edges), k, core.Random, opts.Seed+1, nil)
	demGroups := core.Partition(len(inst.Demands), k, opts.Strategy, opts.Seed,
		func(i int) float64 { return inst.Demands[i].Amount })

	type subResult struct {
		inst  *Instance
		alloc *Allocation
		// edgeMap maps sub-graph edge IDs back to original edge IDs.
		edgeMap []int
		g       []int // demand indices
	}
	results := make([]subResult, k)

	for p := 0; p < k; p++ {
		// Build the sub-graph containing only this partition's edges.
		subG := graph.New(g.N)
		edgeMap := make([]int, 0, len(edgeGroups[p]))
		for _, eid := range edgeGroups[p] {
			e := g.Edges[eid]
			subG.AddEdge(e.From, e.To, e.Capacity, e.Weight)
			edgeMap = append(edgeMap, eid)
		}
		subTopo := &topo.Topology{Name: inst.Topo.Name, G: subG, Coords: inst.Topo.Coords}

		demands := make([]tm.Demand, len(demGroups[p]))
		for t, j := range demGroups[p] {
			demands[t] = inst.Demands[j]
		}
		results[p] = subResult{
			inst:    NewInstance(subTopo, demands, inst.NumPaths),
			edgeMap: edgeMap,
			g:       demGroups[p],
		}
	}

	err := core.ParallelMap(k, opts.Parallel, func(p int) error {
		a, err := SolveLP(results[p].inst, obj, lpOpts)
		results[p].alloc = a
		return err
	})
	if err != nil {
		return nil, err
	}

	// Coalesce onto the original instance. Path indices differ (paths were
	// recomputed in the sub-graph), so we only coalesce flows and edge
	// loads, not PathFlow.
	out := newAllocation(inst)
	out.MinFraction = 1
	for p := range results {
		r := results[p]
		out.LPVariables += r.alloc.LPVariables
		for t, j := range r.g {
			out.Flow[j] = r.alloc.Flow[t]
			out.TotalFlow += r.alloc.Flow[t]
		}
		for se, f := range r.alloc.EdgeFlow {
			out.EdgeFlow[r.edgeMap[se]] += f
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
