package te

import (
	"math"
	"math/rand"
	"sort"

	"pop/internal/graph"
	"pop/internal/lp"
	"pop/internal/tm"
	"pop/internal/topo"
)

// NCFlowOptions tune the simplified NCFlow baseline.
type NCFlowOptions struct {
	// Clusters is the number of geographic clusters; 0 picks ~√N.
	Clusters int
	// Seed controls the k-means initialization.
	Seed int64
	// LP propagates solver options.
	LP lp.Options
}

// SolveNCFlow is a simplified reimplementation of the NCFlow baseline
// (Abuzaid et al., NSDI 21) the paper compares against in Figure 9:
//
//  1. Nodes are clustered geographically (k-means on coordinates).
//  2. Intra-cluster commodities are solved exactly within their cluster's
//     subgraph (small LPs).
//  3. Inter-cluster commodities are aggregated per cluster pair and solved
//     on the contracted cluster graph (another small LP); the granted
//     aggregate flow is then realized greedily on the real topology along
//     each commodity's precomputed paths, subject to the capacity left over
//     by step 2.
//
// Compared to the real NCFlow this skips the iterative reconciliation
// between levels, so it loses somewhat more flow; it preserves the
// baseline's essential behaviour — faster than the exact LP, total flow
// below it — which is what Figure 9 needs.
func SolveNCFlow(inst *Instance, opts NCFlowOptions) (*Allocation, error) {
	g := inst.Topo.G
	n := g.N
	nc := opts.Clusters
	if nc <= 0 {
		nc = int(math.Max(2, math.Round(math.Sqrt(float64(n))/1.5)))
	}
	assign := kmeans(inst.Topo.Coords, nc, opts.Seed)

	residual := make([]float64, len(g.Edges))
	for i, e := range g.Edges {
		residual[i] = e.Capacity
	}
	out := newAllocation(inst)

	// --- Step 2: intra-cluster commodities, exact per-cluster LPs. ---
	intra := make(map[int][]int) // cluster -> demand indices
	var inter []int
	for j, d := range inst.Demands {
		if assign[d.Src] == assign[d.Dst] {
			c := assign[d.Src]
			intra[c] = append(intra[c], j)
		} else {
			inter = append(inter, j)
		}
	}
	clusters := make([]int, 0, len(intra))
	for c := range intra {
		clusters = append(clusters, c)
	}
	sort.Ints(clusters)
	lpVars := 0
	for _, c := range clusters {
		js := intra[c]
		// Sub-graph: edges fully inside cluster c.
		subG := graph.New(n)
		var edgeMap []int
		for _, e := range g.Edges {
			if assign[e.From] == c && assign[e.To] == c {
				subG.AddEdge(e.From, e.To, e.Capacity, e.Weight)
				edgeMap = append(edgeMap, e.ID)
			}
		}
		demands := make([]tm.Demand, len(js))
		for t, j := range js {
			demands[t] = inst.Demands[j]
		}
		subTopo := &topo.Topology{Name: inst.Topo.Name, G: subG, Coords: inst.Topo.Coords}
		subInst := NewInstance(subTopo, demands, inst.NumPaths)
		a, err := SolveLP(subInst, MaxTotalFlow, opts.LP)
		if err != nil {
			return nil, err
		}
		lpVars += a.LPVariables
		for t, j := range js {
			out.Flow[j] = a.Flow[t]
		}
		for se, f := range a.EdgeFlow {
			out.EdgeFlow[edgeMap[se]] += f
			residual[edgeMap[se]] -= f
		}
	}

	// --- Step 3: inter-cluster commodities on the contracted graph. ---
	if len(inter) > 0 {
		contracted := graph.New(nc)
		// Aggregate inter-cluster capacity per ordered cluster pair.
		agg := map[[2]int]float64{}
		for _, e := range g.Edges {
			ca, cb := assign[e.From], assign[e.To]
			if ca != cb {
				agg[[2]int{ca, cb}] += e.Capacity
			}
		}
		pairs := make([][2]int, 0, len(agg))
		for pr := range agg {
			pairs = append(pairs, pr)
		}
		sort.Slice(pairs, func(a, b int) bool {
			if pairs[a][0] != pairs[b][0] {
				return pairs[a][0] < pairs[b][0]
			}
			return pairs[a][1] < pairs[b][1]
		})
		for _, pr := range pairs {
			contracted.AddEdge(pr[0], pr[1], agg[pr], 1)
		}

		// Aggregate demands per cluster pair.
		aggDem := map[[2]int]float64{}
		for _, j := range inter {
			d := inst.Demands[j]
			aggDem[[2]int{assign[d.Src], assign[d.Dst]}] += d.Amount
		}
		dPairs := make([][2]int, 0, len(aggDem))
		for pr := range aggDem {
			dPairs = append(dPairs, pr)
		}
		sort.Slice(dPairs, func(a, b int) bool {
			if dPairs[a][0] != dPairs[b][0] {
				return dPairs[a][0] < dPairs[b][0]
			}
			return dPairs[a][1] < dPairs[b][1]
		})
		cDemands := make([]tm.Demand, len(dPairs))
		for i, pr := range dPairs {
			cDemands[i] = tm.Demand{Src: pr[0], Dst: pr[1], Amount: aggDem[pr]}
		}
		cTopo := &topo.Topology{Name: "contracted", G: contracted}
		cInst := NewInstance(cTopo, cDemands, inst.NumPaths)
		cAlloc, err := SolveLP(cInst, MaxTotalFlow, opts.LP)
		if err != nil {
			return nil, err
		}
		lpVars += cAlloc.LPVariables

		// Grant each inter-cluster commodity its proportional share of the
		// aggregate, then realize it greedily on the real graph.
		grant := map[[2]int]float64{}
		for i, pr := range dPairs {
			if aggDem[pr] > 0 {
				grant[pr] = cAlloc.Flow[i] / aggDem[pr] // fraction granted
			}
		}
		// Largest first for better packing.
		sort.SliceStable(inter, func(a, b int) bool {
			return inst.Demands[inter[a]].Amount > inst.Demands[inter[b]].Amount
		})
		for _, j := range inter {
			d := inst.Demands[j]
			pr := [2]int{assign[d.Src], assign[d.Dst]}
			want := d.Amount * grant[pr]
			for pi, path := range inst.Paths[j] {
				if want <= 1e-12 {
					break
				}
				bottleneck := want
				for _, eid := range path.Edges {
					if residual[eid] < bottleneck {
						bottleneck = residual[eid]
					}
				}
				if bottleneck <= 0 {
					continue
				}
				out.PathFlow[j][pi] += bottleneck
				want -= bottleneck
				for _, eid := range path.Edges {
					residual[eid] -= bottleneck
					out.EdgeFlow[eid] += bottleneck
				}
				out.Flow[j] += bottleneck
			}
		}
	}

	// finalize() would wipe the intra-cluster flows (they are not expressed
	// in PathFlow), so total from Flow directly.
	out.totals(inst)
	out.LPVariables = lpVars
	return out, nil
}

// kmeans clusters 2-D points into k clusters with a few Lloyd iterations.
// Deterministic in seed; empty clusters are reseeded from the farthest
// point.
func kmeans(points [][2]float64, k int, seed int64) []int {
	n := len(points)
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(seed))
	centers := make([][2]float64, k)
	perm := rng.Perm(n)
	for i := 0; i < k; i++ {
		centers[i] = points[perm[i]]
	}
	assign := make([]int, n)
	for iter := 0; iter < 12; iter++ {
		// Assign.
		for i, p := range points {
			best, bd := 0, math.Inf(1)
			for c, ctr := range centers {
				d := sq(p[0]-ctr[0]) + sq(p[1]-ctr[1])
				if d < bd {
					best, bd = c, d
				}
			}
			assign[i] = best
		}
		// Update.
		sums := make([][2]float64, k)
		counts := make([]int, k)
		for i, p := range points {
			c := assign[i]
			sums[c][0] += p[0]
			sums[c][1] += p[1]
			counts[c]++
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				centers[c] = points[rng.Intn(n)]
				continue
			}
			centers[c] = [2]float64{sums[c][0] / float64(counts[c]), sums[c][1] / float64(counts[c])}
		}
	}
	return assign
}

func sq(x float64) float64 { return x * x }
