package graph_test

import (
	"testing"

	"pop/internal/graph"
	"pop/internal/tm"
	"pop/internal/topo"
)

// TestTopoFamiliesMatchOracle: on every Table-1 family at small scale (a
// smaller one under -short), and
// on topo.Tiny (all weights 1, so ties everywhere), every pair's four
// shortest paths equal the oracle's, bit for bit.
func TestTopoFamiliesMatchOracle(t *testing.T) {
	factor := 0.12
	if testing.Short() {
		factor = 0.06
	}
	tops := []*topo.Topology{topo.Tiny()}
	for _, s := range topo.Table1() {
		tops = append(tops, topo.GenerateScaled(s.Name, factor))
	}
	for _, tp := range tops {
		g := tp.G
		for src := 0; src < g.N; src++ {
			for dst := 0; dst < g.N; dst++ {
				if d := graph.DiffPaths(g.KShortestPaths(src, dst, 4), graph.OracleKShortestPaths(g, src, dst, 4)); d != "" {
					t.Fatalf("%s (%d nodes): KShortestPaths(%d, %d, 4): %s", tp.Name, g.N, src, dst, d)
				}
			}
		}
	}
}

// TestBatchTENetworkMatchesOracle pins the repository benchmark's TE
// network (Kdl ×0.3, 1 000 gravity commodities, four paths each): every
// commodity's paths equal the oracle's, bit for bit.
func TestBatchTENetworkMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("~1.5 s; the topology families above cover the same code under -short")
	}
	tp := topo.GenerateScaled("Kdl", 0.3)
	demands := tm.Generate(tm.Config{Nodes: tp.G.N, Commodities: 1000, Model: tm.Gravity, Seed: 1})
	paths := 0
	for _, d := range demands {
		got := tp.G.KShortestPaths(d.Src, d.Dst, 4)
		if diff := graph.DiffPaths(got, graph.OracleKShortestPaths(tp.G, d.Src, d.Dst, 4)); diff != "" {
			t.Fatalf("KShortestPaths(%d, %d, 4): %s", d.Src, d.Dst, diff)
		}
		paths += len(got)
	}
	if paths != 3976 {
		t.Fatalf("%d paths, want 3976", paths)
	}
}
