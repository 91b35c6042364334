package topo

import (
	"testing"

	"pop/internal/graph"
)

// connected reports whether every node is reachable from node 0; generated
// links are bidirectional, so that is connectivity.
func connected(g *graph.Graph) bool {
	for v := 1; v < g.N; v++ {
		if len(g.KShortestPaths(0, v, 1)) == 0 {
			return false
		}
	}
	return true
}

func TestTable1SpecsGenerate(t *testing.T) {
	for _, spec := range Table1() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			tp := Generate(spec.Name)
			if tp.G.N != spec.Nodes {
				t.Fatalf("nodes = %d, want %d", tp.G.N, spec.Nodes)
			}
			// Directed edge count must match Table 1 exactly when the link
			// budget is above the spanning-tree minimum.
			if len(tp.G.Edges) != spec.Edges {
				t.Fatalf("edges = %d, want %d", len(tp.G.Edges), spec.Edges)
			}
			if !connected(tp.G) {
				t.Fatal("generated topology is disconnected")
			}
			if len(tp.Coords) != spec.Nodes {
				t.Fatalf("coords = %d, want %d", len(tp.Coords), spec.Nodes)
			}
		})
	}
}

func TestDeterministic(t *testing.T) {
	a := Generate("Cogentco")
	b := Generate("Cogentco")
	if len(a.G.Edges) != len(b.G.Edges) {
		t.Fatal("nondeterministic edge count")
	}
	for i := range a.G.Edges {
		if a.G.Edges[i] != b.G.Edges[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, a.G.Edges[i], b.G.Edges[i])
		}
	}
}

func TestGenerateScaled(t *testing.T) {
	tp := GenerateScaled("Kdl", 0.25)
	if tp.G.N >= 754 || tp.G.N < 8 {
		t.Fatalf("scaled nodes = %d", tp.G.N)
	}
	if !connected(tp.G) {
		t.Fatal("scaled topology disconnected")
	}
}

func TestCapacitiesPositive(t *testing.T) {
	tp := Generate("Deltacom")
	for _, e := range tp.G.Edges {
		if e.Capacity <= 0 {
			t.Fatalf("edge %d has capacity %g", e.ID, e.Capacity)
		}
		if e.Weight <= 0 {
			t.Fatalf("edge %d has weight %g", e.ID, e.Weight)
		}
	}
	if tp.TotalCapacity() <= 0 {
		t.Fatal("zero total capacity")
	}
}

func TestBidirectionalLinks(t *testing.T) {
	tp := Generate("UsCarrier")
	// Every link must exist in both directions with equal capacity.
	type key struct{ a, b int }
	caps := map[key]float64{}
	for _, e := range tp.G.Edges {
		caps[key{e.From, e.To}] = e.Capacity
	}
	for _, e := range tp.G.Edges {
		rev, ok := caps[key{e.To, e.From}]
		if !ok {
			t.Fatalf("edge %d→%d has no reverse", e.From, e.To)
		}
		if rev != e.Capacity {
			t.Fatalf("asymmetric capacities on %d↔%d", e.From, e.To)
		}
	}
}

func TestTiny(t *testing.T) {
	tp := Tiny()
	if tp.G.N != 6 || len(tp.G.Edges) != 14 {
		t.Fatalf("tiny: %d nodes %d edges", tp.G.N, len(tp.G.Edges))
	}
	if !connected(tp.G) {
		t.Fatal("tiny disconnected")
	}
}

func TestUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown topology")
		}
	}()
	Generate("NotATopology")
}
