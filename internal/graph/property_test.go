package graph

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// enumeratePaths lists every loopless path from src to dst by DFS,
// returning their weights sorted ascending. Exponential — only for tiny
// graphs in tests.
func enumeratePaths(g *Graph, src, dst int) []float64 {
	var weights []float64
	visited := make([]bool, g.N)
	var dfs func(v int, w float64)
	dfs = func(v int, w float64) {
		if v == dst {
			weights = append(weights, w)
			return
		}
		visited[v] = true
		for _, eid := range g.out[v] {
			e := g.Edges[eid]
			if !visited[e.To] {
				dfs(e.To, w+e.Weight)
			}
		}
		visited[v] = false
	}
	dfs(src, 0)
	sort.Float64s(weights)
	return weights
}

func randomSmallGraph(rng *rand.Rand) *Graph {
	n := 4 + rng.Intn(4)
	g := New(n)
	// Spanning chain for connectivity plus random extra edges.
	for i := 0; i < n-1; i++ {
		g.AddBidirectional(i, i+1, 1, 0.5+rng.Float64()*2)
	}
	extra := rng.Intn(2 * n)
	for t := 0; t < extra; t++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.AddEdge(a, b, 1, 0.5+rng.Float64()*2)
		}
	}
	return g
}

// TestYenMatchesBruteForce cross-checks Yen's algorithm against exhaustive
// path enumeration: the k shortest loopless path weights must equal the k
// smallest enumerated weights.
func TestYenMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomSmallGraph(rng)
		src, dst := 0, g.N-1
		k := 1 + rng.Intn(6)

		want := enumeratePaths(g, src, dst)
		got := g.KShortestPaths(src, dst, k)

		if len(want) == 0 {
			return len(got) == 0
		}
		expect := k
		if len(want) < k {
			expect = len(want)
		}
		if len(got) != expect {
			t.Logf("seed %d: got %d paths, want %d", seed, len(got), expect)
			return false
		}
		for i, p := range got {
			if math.Abs(p.Weight-want[i]) > 1e-9 {
				t.Logf("seed %d: path %d weight %g, brute force %g", seed, i, p.Weight, want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestDijkstraMatchesBruteForce: the shortest path equals the minimum
// enumerated weight.
func TestDijkstraMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomSmallGraph(rng)
		src, dst := 0, g.N-1
		want := enumeratePaths(g, src, dst)
		got := shortestPath(g, src, dst, nil)
		if len(want) == 0 {
			return got == nil
		}
		return got != nil && math.Abs(got.Weight-want[0]) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
