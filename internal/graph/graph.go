// Package graph provides the directed-graph substrate used by the traffic
// engineering case study: adjacency storage, Dijkstra shortest paths, Yen's
// k-shortest loopless paths (used to precompute the per-commodity path sets
// the paper's TE formulations take as input), and connectivity checks.
//
// Dijkstra's heap is a typed binary heap whose pushes and pops compare and
// swap exactly as container/heap's do, so nodes at equal distance pop in
// container/heap's order and ties pick the same paths. Each KShortestPaths
// call owns its scratch (distances, heap, ban marks), so concurrent calls on
// a graph nobody mutates are safe.
package graph

import (
	"encoding/binary"
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

// pq is a binary min-heap on dist. push and pop make container/heap's
// comparisons and swaps (its up and down, the last item swapped into slot 0
// on pop), so items of equal distance pop in container/heap's order.
type pq []pqItem

func (q *pq) push(it pqItem) {
	h := append(*q, it)
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	*q = h
}

func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2 // right child
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}

// scratch is the working state of one Dijkstra or Yen call; its spur
// searches reuse it. Edges with banEdge set and edges into nodes with
// banNode set are not relaxed. Edges out of a banned node need no check:
// the search starts at an unbanned node and never reaches a banned one.
type scratch struct {
	dist    []float64
	prev    []int // edge id arriving at node, or -1
	heap    pq
	banEdge []bool
	banNode []bool
}

func (g *Graph) newScratch() *scratch {
	return &scratch{
		dist:    make([]float64, g.N),
		prev:    make([]int, g.N),
		banEdge: make([]bool, len(g.Edges)),
		banNode: make([]bool, g.N),
	}
}

// shortest runs Dijkstra from src to dst over the edges s does not ban. It
// returns root followed by the path's edges, in a new slice (nil if both
// are empty), the path's weight, and whether dst is reachable.
func (g *Graph) shortest(s *scratch, src, dst int, root []int) ([]int, float64, bool) {
	for i := range s.dist {
		s.dist[i] = math.Inf(1)
		s.prev[i] = -1
	}
	s.dist[src] = 0
	s.heap = append(s.heap[:0], pqItem{src, 0})
	for len(s.heap) > 0 {
		it := s.heap.pop()
		if it.dist > s.dist[it.node] {
			continue
		}
		if it.node == dst {
			break
		}
		for _, eid := range g.out[it.node] {
			e := &g.Edges[eid]
			if s.banEdge[eid] || s.banNode[e.To] {
				continue
			}
			nd := it.dist + e.Weight
			if nd < s.dist[e.To] {
				s.dist[e.To] = nd
				s.prev[e.To] = eid
				s.heap.push(pqItem{e.To, nd})
			}
		}
	}
	if math.IsInf(s.dist[dst], 1) {
		return nil, 0, false
	}
	hops := 0
	for v := dst; v != src; v = g.Edges[s.prev[v]].From {
		hops++
	}
	var edges []int
	if n := len(root) + hops; n > 0 {
		edges = make([]int, n)
	}
	copy(edges, root)
	for v, t := dst, len(edges)-1; v != src; t-- {
		edges[t] = s.prev[v]
		v = g.Edges[edges[t]].From
	}
	return edges, s.dist[dst], true
}

func (g *Graph) makePath(src int, edges []int, weight float64) *Path {
	nodes := make([]int, 0, len(edges)+1)
	nodes = append(nodes, src)
	for _, eid := range edges {
		nodes = append(nodes, g.Edges[eid].To)
	}
	return &Path{Edges: edges, Nodes: nodes, Weight: weight}
}

// KShortestPaths returns up to k loopless shortest paths from src to dst
// using Yen's algorithm. Paths are ordered by increasing weight; among
// candidates of equal weight the first found wins, and within one search
// ties pop in container/heap's order. Each call owns its scratch (one set
// of distance, heap and ban slices its spur searches share), so concurrent
// calls on a graph nobody mutates are safe.
func (g *Graph) KShortestPaths(src, dst, k int) []*Path {
	if k <= 0 {
		return nil
	}
	s := g.newScratch()
	edges, w, ok := g.shortest(s, src, dst, nil)
	if !ok {
		return nil
	}
	first := g.makePath(src, edges, w)
	paths := []*Path{first}
	// Candidate pool, deduplicated by edge-sequence signature.
	var candidates []*Path
	seen := map[string]bool{pathKey(first): true}

	for len(paths) < k {
		last := paths[len(paths)-1]
		// Spur from each node of the last accepted path.
		for i := 0; i < len(last.Nodes)-1; i++ {
			// Banned: any edge leaving the spur node that continues a
			// previously accepted path sharing the same root, and every
			// root node but the spur node itself.
			g.banSpur(s, paths, last, i, true)
			total, _, ok := g.shortest(s, last.Nodes[i], dst, last.Edges[:i])
			g.banSpur(s, paths, last, i, false)
			if !ok {
				continue
			}
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

// banSpur sets (on) or clears the bans of the spur search from node i of
// last.
func (g *Graph) banSpur(s *scratch, paths []*Path, last *Path, i int, on bool) {
	for _, p := range paths {
		if len(p.Edges) > i && sameRoot(p, last, i) {
			s.banEdge[p.Edges[i]] = on
		}
	}
	for _, v := range last.Nodes[:i] {
		s.banNode[v] = on
	}
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
		buf = binary.AppendUvarint(buf, uint64(e))
	}
	return string(buf)
}
