package graph

import (
	"math/rand"
	"testing"
)

func lineGraph(n int) *Graph {
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.AddBidirectional(i, i+1, 1, 1)
	}
	return g
}

// shortestPath is one run of the Dijkstra loop Yen's first search and spur
// searches share, from src to dst over the edges skip (which may be nil)
// does not name; nil when dst is unreachable.
func shortestPath(g *Graph, src, dst int, skip func(edgeID int) bool) *Path {
	s := g.newScratch()
	if skip != nil {
		for eid := range s.banEdge {
			s.banEdge[eid] = skip(eid)
		}
	}
	edges, w, ok := g.shortest(s, src, dst, nil)
	if !ok {
		return nil
	}
	return g.makePath(src, edges, w)
}

func TestShortestPathLine(t *testing.T) {
	g := lineGraph(5)
	p := shortestPath(g, 0, 4, nil)
	if p == nil {
		t.Fatal("no path found")
	}
	if len(p.Edges) != 4 || p.Weight != 4 {
		t.Fatalf("path = %+v, want 4 hops weight 4", p)
	}
	if p.Nodes[0] != 0 || p.Nodes[len(p.Nodes)-1] != 4 {
		t.Fatalf("endpoints wrong: %v", p.Nodes)
	}
}

func TestShortestPathPrefersLightEdges(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 2, 1, 10) // direct but heavy
	g.AddEdge(0, 1, 1, 1)  // detour...
	g.AddEdge(1, 2, 1, 2)  // ...total 3
	p := shortestPath(g, 0, 2, nil)
	if p.Weight != 3 || len(p.Edges) != 2 {
		t.Fatalf("path = %+v, want 2-hop weight 3", p)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(2, 3, 1, 1)
	if p := shortestPath(g, 0, 3, nil); p != nil {
		t.Fatalf("expected nil path, got %+v", p)
	}
}

func TestShortestPathSkip(t *testing.T) {
	g := New(3)
	direct := g.AddEdge(0, 2, 1, 1)
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(1, 2, 1, 1)
	p := shortestPath(g, 0, 2, func(eid int) bool { return eid == direct })
	if p == nil || len(p.Edges) != 2 {
		t.Fatalf("skip not honored: %+v", p)
	}
}

func TestKShortestPathsDiamond(t *testing.T) {
	//   1
	//  / \
	// 0   3   plus a longer path through 2
	//  \ /
	//   2
	g := New(4)
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(1, 3, 1, 1)
	g.AddEdge(0, 2, 1, 2)
	g.AddEdge(2, 3, 1, 2)
	paths := g.KShortestPaths(0, 3, 4)
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	if paths[0].Weight != 2 || paths[1].Weight != 4 {
		t.Fatalf("weights = %g, %g; want 2, 4", paths[0].Weight, paths[1].Weight)
	}
}

func TestKShortestPathsOrderedAndLoopless(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := New(12)
	for i := 0; i < 11; i++ {
		g.AddBidirectional(i, i+1, 1, 1+rng.Float64())
	}
	for trial := 0; trial < 14; trial++ {
		a, b := rng.Intn(12), rng.Intn(12)
		if a != b {
			g.AddBidirectional(a, b, 1, 0.5+2*rng.Float64())
		}
	}
	paths := g.KShortestPaths(0, 11, 6)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	for i := 1; i < len(paths); i++ {
		if paths[i].Weight < paths[i-1].Weight-1e-12 {
			t.Fatalf("paths out of order: %g then %g", paths[i-1].Weight, paths[i].Weight)
		}
	}
	for _, p := range paths {
		seen := map[int]bool{}
		for _, v := range p.Nodes {
			if seen[v] {
				t.Fatalf("path revisits node %d: %v", v, p.Nodes)
			}
			seen[v] = true
		}
		// Path must be contiguous.
		for t2 := 0; t2 < len(p.Edges); t2++ {
			e := g.Edges[p.Edges[t2]]
			if e.From != p.Nodes[t2] || e.To != p.Nodes[t2+1] {
				t.Fatalf("discontiguous path: edge %d=%+v at position %d of %v", p.Edges[t2], e, t2, p.Nodes)
			}
		}
	}
	// Distinctness.
	seenKey := map[string]bool{}
	for _, p := range paths {
		k := pathKey(p)
		if seenKey[k] {
			t.Fatal("duplicate path returned")
		}
		seenKey[k] = true
	}
}

func TestKShortestPathsKOne(t *testing.T) {
	g := lineGraph(4)
	paths := g.KShortestPaths(0, 3, 1)
	if len(paths) != 1 {
		t.Fatalf("got %d paths", len(paths))
	}
}

// TestConnected: KShortestPaths reaches the far end of a line graph and
// finds no path to a node no edge reaches — the reachability the topology
// tests rely on.
func TestConnected(t *testing.T) {
	g := lineGraph(6)
	if len(g.KShortestPaths(0, 5, 1)) != 1 {
		t.Fatal("no path across a line graph")
	}
	g2 := New(4)
	g2.AddEdge(0, 1, 1, 1)
	if len(g2.KShortestPaths(0, 2, 1)) != 0 {
		t.Fatal("path found to an unreachable node")
	}
}

func TestClone(t *testing.T) {
	g := lineGraph(4)
	c := g.Clone()
	c.AddEdge(0, 3, 1, 1)
	if len(g.Edges) == len(c.Edges) {
		t.Fatal("clone shares edge storage")
	}
}
