package graph

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The container/heap + map-ban Dijkstra and Yen that the Dijkstra loop and
// KShortestPaths replaced, kept verbatim (names prefixed with oracle) as
// their oracle: the new code must return the same paths, bit for bit,
// ties included. oraclePathKey keeps the old 24-bit edge-ID encoding; no
// graph these tests build has that many edges.

type oraclePQ []pqItem

func (q oraclePQ) Len() int           { return len(q) }
func (q oraclePQ) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q oraclePQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *oraclePQ) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *oraclePQ) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func oracleShortestPath(g *Graph, src, dst int, skip func(edgeID int) bool) *Path {
	dist := make([]float64, g.N)
	prev := make([]int, g.N) // edge id arriving at node, or -1
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	q := &oraclePQ{{src, 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.dist > dist[it.node] {
			continue
		}
		if it.node == dst {
			break
		}
		for _, eid := range g.out[it.node] {
			if skip != nil && skip(eid) {
				continue
			}
			e := &g.Edges[eid]
			nd := it.dist + e.Weight
			if nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = eid
				heap.Push(q, pqItem{e.To, nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil
	}
	// Reconstruct.
	var edges []int
	for v := dst; v != src; {
		eid := prev[v]
		edges = append(edges, eid)
		v = g.Edges[eid].From
	}
	for i, j := 0, len(edges)-1; i < j; i, j = i+1, j-1 {
		edges[i], edges[j] = edges[j], edges[i]
	}
	return g.makePath(src, edges, dist[dst])
}

func oracleKShortestPaths(g *Graph, src, dst, k int) []*Path {
	if k <= 0 {
		return nil
	}
	first := oracleShortestPath(g, src, dst, nil)
	if first == nil {
		return nil
	}
	paths := []*Path{first}
	// Candidate pool, deduplicated by node-sequence signature.
	var candidates []*Path
	seen := map[string]bool{oraclePathKey(first): true}

	for len(paths) < k {
		last := paths[len(paths)-1]
		// Spur from each node of the last accepted path.
		for i := 0; i < len(last.Nodes)-1; i++ {
			spurNode := last.Nodes[i]
			rootEdges := last.Edges[:i]

			// Edges removed: any edge leaving spurNode that continues a
			// previously accepted path sharing the same root.
			banned := map[int]bool{}
			for _, p := range paths {
				if len(p.Edges) > i && sameRoot(p, last, i) {
					banned[p.Edges[i]] = true
				}
			}
			// Nodes on the root (except the spur node) must not be revisited.
			rootNodes := map[int]bool{}
			for _, v := range last.Nodes[:i] {
				rootNodes[v] = true
			}
			skip := func(eid int) bool {
				if banned[eid] {
					return true
				}
				e := &g.Edges[eid]
				return rootNodes[e.From] || rootNodes[e.To]
			}
			spur := oracleShortestPath(g, spurNode, dst, skip)
			if spur == nil {
				continue
			}
			total := append(append([]int(nil), rootEdges...), spur.Edges...)
			w := 0.0
			for _, eid := range total {
				w += g.Edges[eid].Weight
			}
			cand := g.makePath(src, total, w)
			key := oraclePathKey(cand)
			if !seen[key] {
				seen[key] = true
				candidates = append(candidates, cand)
			}
		}
		if len(candidates) == 0 {
			break
		}
		// Take the lightest candidate.
		best := 0
		for i := 1; i < len(candidates); i++ {
			if candidates[i].Weight < candidates[best].Weight {
				best = i
			}
		}
		paths = append(paths, candidates[best])
		candidates = append(candidates[:best], candidates[best+1:]...)
	}
	return paths
}

func oraclePathKey(p *Path) string {
	buf := make([]byte, 0, len(p.Edges)*3)
	for _, e := range p.Edges {
		buf = append(buf, byte(e), byte(e>>8), byte(e>>16))
	}
	return string(buf)
}

// diffPaths returns "" if got and want hold the same paths (edges, nil
// included, nodes and weight bits), else a description of the first
// difference.
func diffPaths(got, want []*Path) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d paths, oracle %d", len(got), len(want))
	}
	for i := range got {
		if d := diffPath(got[i], want[i]); d != "" {
			return fmt.Sprintf("path %d: %s", i, d)
		}
	}
	return ""
}

func diffPath(got, want *Path) string {
	switch {
	case got == nil || want == nil:
		if got != want {
			return fmt.Sprintf("got %v, oracle %v", got, want)
		}
	case !slices.Equal(got.Edges, want.Edges) || (got.Edges == nil) != (want.Edges == nil):
		return fmt.Sprintf("edges %v, oracle %v", got.Edges, want.Edges)
	case !slices.Equal(got.Nodes, want.Nodes):
		return fmt.Sprintf("nodes %v, oracle %v", got.Nodes, want.Nodes)
	case math.Float64bits(got.Weight) != math.Float64bits(want.Weight):
		return fmt.Sprintf("weight %x, oracle %x", math.Float64bits(got.Weight), math.Float64bits(want.Weight))
	}
	return ""
}

// tieGraph is a directed multigraph on n nodes with integer weights in
// {1, 2, 3}: equal-weight paths everywhere, parallel edges, self-loops and,
// being sparse and directed, unreachable pairs.
func tieGraph(rng *rand.Rand, n int) *Graph {
	g := New(n)
	m := rng.Intn(3*n + 1)
	for t := 0; t < m; t++ {
		a, b := rng.Intn(n), rng.Intn(n)
		w := float64(1 + rng.Intn(3))
		g.AddEdge(a, b, 1, w)
		if rng.Intn(4) == 0 {
			g.AddEdge(a, b, 1, w) // a parallel twin
		}
	}
	return g
}

// checkAllPairs holds KShortestPaths and the Dijkstra loop (with and
// without a skip) to the oracle over every ordered pair of g, self-pairs included.
func checkAllPairs(t *testing.T, g *Graph, k int, rng *rand.Rand) {
	t.Helper()
	banned := make([]bool, len(g.Edges))
	for i := range banned {
		banned[i] = rng.Intn(4) == 0
	}
	skip := func(eid int) bool { return banned[eid] }
	for src := 0; src < g.N; src++ {
		for dst := 0; dst < g.N; dst++ {
			if d := diffPaths(g.KShortestPaths(src, dst, k), oracleKShortestPaths(g, src, dst, k)); d != "" {
				t.Fatalf("KShortestPaths(%d, %d, %d) on %d nodes, %d edges: %s", src, dst, k, g.N, len(g.Edges), d)
			}
			if d := diffPath(shortestPath(g, src, dst, nil), oracleShortestPath(g, src, dst, nil)); d != "" {
				t.Fatalf("shortest(%d, %d, nil): %s", src, dst, d)
			}
			if d := diffPath(shortestPath(g, src, dst, skip), oracleShortestPath(g, src, dst, skip)); d != "" {
				t.Fatalf("shortest(%d, %d, skip): %s", src, dst, d)
			}
		}
	}
}

// TestKShortestMatchesOracle: the typed heap and ban slices return the
// oracle's paths, bit for bit, on random real-weight graphs and on
// tie-heavy integer-weight multigraphs.
func TestKShortestMatchesOracle(t *testing.T) {
	graphs := 600
	if testing.Short() {
		graphs = 100
	}
	for seed := int64(0); seed < int64(graphs); seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkAllPairs(t, randomSmallGraph(rng), 1+rng.Intn(6), rng)
		checkAllPairs(t, tieGraph(rng, 2+rng.Intn(19)), 1+rng.Intn(6), rng)
	}
}

// FuzzKShortestPaths: on any graph the fuzzer builds, every pair's paths
// equal the oracle's, bit for bit.
func FuzzKShortestPaths(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(4), false)
	f.Add(int64(2), uint8(12), uint8(4), true)
	f.Add(int64(3), uint8(20), uint8(7), true)
	f.Add(int64(4), uint8(1), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed int64, n, k uint8, intWeights bool) {
		rng := rand.New(rand.NewSource(seed))
		var g *Graph
		if intWeights {
			g = tieGraph(rng, 1+int(n)%24)
		} else {
			g = randomSmallGraph(rng)
		}
		checkAllPairs(t, g, int(k)%8, rng)
	})
}

// TestPathKeyFullEdgeID: edge IDs that differ only above bit 23 key apart,
// so Yen does not drop the second of two such candidates as a duplicate.
func TestPathKeyFullEdgeID(t *testing.T) {
	a := &Path{Edges: []int{1}}
	b := &Path{Edges: []int{1 + 1<<24}}
	if pathKey(a) == pathKey(b) {
		t.Fatalf("pathKey(%v) == pathKey(%v)", a.Edges, b.Edges)
	}
}
