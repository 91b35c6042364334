package te

import (
	"sort"

	"pop/internal/core"
	"pop/internal/lp"
	"pop/internal/topo"
)

// SolvePOPWithNCFlow demonstrates POP's composability (§3.4 "Composability"
// and §8: "POP and NCFlow can be used together"): POP runs as the outer
// simplifying loop — random commodity partition plus resource splitting —
// and each sub-problem is solved by the NCFlow decomposition instead of the
// exact LP. The combination keeps POP's generality while inheriting
// NCFlow's cheaper per-problem cost.
func SolvePOPWithNCFlow(inst *Instance, opts core.Options, nc NCFlowOptions) (*Allocation, error) {
	return solvePOP(inst, opts, nil, false, func(sub *Instance, k int) (*Allocation, error) {
		// Resource splitting for a sub-solver that reads capacities from the
		// topology itself (Topo.G.Edges[...].Capacity): a 1/k-scaled copy.
		sub.Topo = scaleTopology(inst.Topo, float64(k))
		return SolveNCFlow(sub, nc)
	})
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

// SolvePOPGeo runs POP with the geographic partitioner instead of
// opts.Strategy (resource splitting unchanged).
func SolvePOPGeo(inst *Instance, obj Objective, opts core.Options, lpOpts lp.Options) (*Allocation, error) {
	groups := func(k int) [][]int { return GeoPartition(inst, k, opts.Seed) }
	return solvePOP(inst, opts, groups, true, func(sub *Instance, k int) (*Allocation, error) {
		return solveScaled(sub, obj, float64(k), nil, lpOpts)
	})
}

// scaleTopology clones the topology with every edge capacity divided by f.
func scaleTopology(t *topo.Topology, f float64) *topo.Topology {
	g := t.G.Clone()
	for i := range g.Edges {
		g.Edges[i].Capacity /= f
	}
	return &topo.Topology{Name: t.Name, G: g, Coords: t.Coords}
}
