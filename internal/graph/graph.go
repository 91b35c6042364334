// Package graph provides the directed-graph substrate used by the traffic
// engineering case study: adjacency storage, Dijkstra shortest paths, Yen's
// k-shortest loopless paths (used to precompute the per-commodity path sets
// the paper's TE formulations take as input), and connectivity checks.
package graph

import (
	"container/heap"
	"fmt"
	"math"
)

// Edge is a directed capacitated link.
type Edge struct {
	ID       int
	From, To int
	Capacity float64
	// Weight is the routing metric (e.g. latency or distance).
	Weight float64
}

// Graph is a directed multigraph with a fixed number of nodes.
type Graph struct {
	N     int
	Edges []Edge

	// out[v] lists indices into Edges leaving v.
	out [][]int
}

// New creates a graph with n nodes and no edges.
func New(n int) *Graph {
	return &Graph{N: n, out: make([][]int, n)}
}

// AddEdge appends a directed edge and returns its ID.
func (g *Graph) AddEdge(from, to int, capacity, weight float64) int {
	if from < 0 || from >= g.N || to < 0 || to >= g.N {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", from, to, g.N))
	}
	id := len(g.Edges)
	g.Edges = append(g.Edges, Edge{ID: id, From: from, To: to, Capacity: capacity, Weight: weight})
	g.out[from] = append(g.out[from], id)
	return id
}

// AddBidirectional adds both directions with the same capacity and weight,
// returning the two edge IDs.
func (g *Graph) AddBidirectional(a, b int, capacity, weight float64) (int, int) {
	return g.AddEdge(a, b, capacity, weight), g.AddEdge(b, a, capacity, weight)
}

// Out returns the IDs of the edges leaving v.
func (g *Graph) Out(v int) []int { return g.out[v] }

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	ng := New(g.N)
	for _, e := range g.Edges {
		ng.AddEdge(e.From, e.To, e.Capacity, e.Weight)
	}
	return ng
}

// Path is a sequence of edge IDs from a source to a destination.
type Path struct {
	Edges []int
	// Nodes is the visited node sequence, len(Edges)+1.
	Nodes  []int
	Weight float64
}

type pqItem struct {
	node int
	dist float64
}

type pq []pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// ShortestPath runs Dijkstra from src to dst over edge weights, skipping
// edges for which skip returns true (skip may be nil). It returns nil if dst
// is unreachable.
func (g *Graph) ShortestPath(src, dst int, skip func(edgeID int) bool) *Path {
	dist := make([]float64, g.N)
	prev := make([]int, g.N) // edge id arriving at node, or -1
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	q := &pq{{src, 0}}
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
	reverse(edges)
	return g.makePath(src, edges, dist[dst])
}

func (g *Graph) makePath(src int, edges []int, weight float64) *Path {
	nodes := make([]int, 0, len(edges)+1)
	nodes = append(nodes, src)
	for _, eid := range edges {
		nodes = append(nodes, g.Edges[eid].To)
	}
	return &Path{Edges: edges, Nodes: nodes, Weight: weight}
}

func reverse(xs []int) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// KShortestPaths returns up to k loopless shortest paths from src to dst
// using Yen's algorithm. Paths are ordered by increasing weight.
func (g *Graph) KShortestPaths(src, dst, k int) []*Path {
	if k <= 0 {
		return nil
	}
	first := g.ShortestPath(src, dst, nil)
	if first == nil {
		return nil
	}
	paths := []*Path{first}
	// Candidate pool, deduplicated by node-sequence signature.
	var candidates []*Path
	seen := map[string]bool{pathKey(first): true}

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
			spur := g.ShortestPath(spurNode, dst, skip)
			if spur == nil {
				continue
			}
			total := append(append([]int(nil), rootEdges...), spur.Edges...)
			w := 0.0
			for _, eid := range total {
				w += g.Edges[eid].Weight
			}
			cand := g.makePath(src, total, w)
			key := pathKey(cand)
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

func sameRoot(p, q *Path, i int) bool {
	if len(p.Edges) < i || len(q.Edges) < i {
		return false
	}
	for t := 0; t < i; t++ {
		if p.Edges[t] != q.Edges[t] {
			return false
		}
	}
	return true
}

// pathKey identifies a path by its edge sequence. Keying on edges (not
// nodes) matters in multigraphs: two paths through the same nodes via
// different parallel edges are distinct paths with distinct weights.
func pathKey(p *Path) string {
	buf := make([]byte, 0, len(p.Edges)*3)
	for _, e := range p.Edges {
		buf = append(buf, byte(e), byte(e>>8), byte(e>>16))
	}
	return string(buf)
}

// Connected reports whether every node is reachable from node 0 treating
// edges as undirected.
func (g *Graph) Connected() bool {
	if g.N == 0 {
		return true
	}
	adj := make([][]int, g.N)
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	visited := make([]bool, g.N)
	stack := []int{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range adj[v] {
			if !visited[u] {
				visited[u] = true
				count++
				stack = append(stack, u)
			}
		}
	}
	return count == g.N
}
