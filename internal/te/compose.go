package te

import (
	"math"
	"sort"

	"pop/internal/core"
	"pop/internal/graph"
	"pop/internal/lp"
	"pop/internal/tm"
	"pop/internal/topo"
)

// SolvePOPWithNCFlow demonstrates POP's composability (§3.4 "Composability"
// and §8: "POP and NCFlow can be used together"): POP runs as the outer
// simplifying loop — random commodity partition plus resource splitting —
// and each sub-problem is solved by the NCFlow decomposition instead of the
// exact LP. The combination keeps POP's generality while inheriting
// NCFlow's cheaper per-problem cost.
func SolvePOPWithNCFlow(inst *Instance, opts core.Options, nc NCFlowOptions) (*Allocation, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	virtual := splitDemands(inst, opts.SplitT)
	groups := core.Partition(len(virtual), opts.K, opts.Strategy, opts.Seed,
		func(i int) float64 { return virtual[i].amount })
	k := len(groups) // Partition clamps k to the commodity count

	// Resource splitting for a sub-solver that reads capacities from the
	// topology itself: one scaled copy of the topology, shared by all
	// sub-problems (NCFlow reads Topo.G.Edges[...].Capacity directly).
	scaled := scaleTopology(inst.Topo, float64(k))

	subInsts := make([]*Instance, k)
	for p, g := range groups {
		sub := &Instance{Topo: scaled, NumPaths: inst.NumPaths}
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
		a, err := SolveNCFlow(subInsts[p], nc)
		subAllocs[p] = a
		return err
	})
	if err != nil {
		return nil, err
	}

	// Coalesce flows per original demand; edge flows sum across
	// sub-problems (each sub saw 1/k capacities, so the sum is feasible).
	out := newAllocation(inst)
	out.MinFraction = math.Inf(1)
	for p, g := range groups {
		sa := subAllocs[p]
		out.LPVariables += sa.LPVariables
		for t, vi := range g {
			orig := virtual[vi].orig
			out.Flow[orig] += sa.Flow[t]
		}
		for e, f := range sa.EdgeFlow {
			out.EdgeFlow[e] += f
		}
	}
	for j, d := range inst.Demands {
		out.TotalFlow += out.Flow[j]
		if d.Amount > 0 {
			out.MinFraction = math.Min(out.MinFraction, out.Flow[j]/d.Amount)
		}
	}
	if math.IsInf(out.MinFraction, 1) {
		out.MinFraction = 0
	}
	return out, nil
}

// GeoPartition assigns commodities to sub-problems by geographic proximity
// of their endpoints (k-means over source/destination midpoints). The paper
// leaves "assign geographically close clients and resources to the same
// sub-problem" as an alternative partitioning strategy (§3.2); this
// implements it for TE so it can be compared against random partitioning.
func GeoPartition(inst *Instance, k int, seed int64) [][]int {
	n := len(inst.Demands)
	if k > n {
		k = n
	}
	points := make([][2]float64, n)
	for j, d := range inst.Demands {
		s := inst.Topo.Coords[d.Src]
		t := inst.Topo.Coords[d.Dst]
		points[j] = [2]float64{(s[0] + t[0]) / 2, (s[1] + t[1]) / 2}
	}
	assign := kmeans(points, k, seed)
	groups := make([][]int, k)
	for j, c := range assign {
		groups[c] = append(groups[c], j)
	}
	// kmeans can leave empty clusters; drop them deterministically (POP
	// sub-problems tolerate unequal group counts).
	out := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			sort.Ints(g)
			out = append(out, g)
		}
	}
	return out
}

// SolvePOPGeo runs POP with the geographic partitioner instead of a random
// one (resource splitting unchanged).
func SolvePOPGeo(inst *Instance, obj Objective, k int, seed int64, parallel bool, lpOpts lp.Options) (*Allocation, error) {
	groups := GeoPartition(inst, k, seed)
	k = len(groups)

	subInsts := make([]*Instance, k)
	for p, g := range groups {
		sub := &Instance{Topo: inst.Topo, NumPaths: inst.NumPaths}
		sub.Demands = make([]tm.Demand, len(g))
		sub.Paths = make([][]*graph.Path, len(g))
		for t, j := range g {
			sub.Demands[t] = inst.Demands[j]
			sub.Paths[t] = inst.Paths[j]
		}
		subInsts[p] = sub
	}
	subAllocs := make([]*Allocation, k)
	err := core.ParallelMap(k, parallel, func(p int) error {
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
		for t, j := range g {
			for pi, f := range sa.PathFlow[t] {
				out.PathFlow[j][pi] += f
			}
		}
	}
	out.finalize(inst)
	return out, nil
}

// scaleTopology clones the topology with every edge capacity divided by f.
func scaleTopology(t *topo.Topology, f float64) *topo.Topology {
	g := t.G.Clone()
	for i := range g.Edges {
		g.Edges[i].Capacity /= f
	}
	return &topo.Topology{Name: t.Name, G: g, Coords: t.Coords}
}
