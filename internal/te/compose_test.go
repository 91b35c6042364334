package te

import (
	"testing"

	"pop/internal/core"
	"pop/internal/lp"
	"pop/internal/tm"
)

func TestPOPWithNCFlowComposition(t *testing.T) {
	inst := smallWAN(t, 400, tm.Gravity, 41)
	exact, err := SolveLP(inst, MaxTotalFlow, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	composed, err := SolvePOPWithNCFlow(inst, core.Options{K: 4, Seed: 3, Parallel: true}, NCFlowOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Feasibility on edges (composition must never oversubscribe a link).
	for _, e := range inst.Topo.G.Edges {
		if composed.EdgeFlow[e.ID] > e.Capacity+1e-6*(1+e.Capacity) {
			t.Fatalf("edge %d over capacity: %g > %g", e.ID, composed.EdgeFlow[e.ID], e.Capacity)
		}
	}
	if composed.TotalFlow <= 0 {
		t.Fatal("composition allocated nothing")
	}
	if composed.TotalFlow > exact.TotalFlow+1e-6 {
		t.Fatalf("composition %g beat exact %g", composed.TotalFlow, exact.TotalFlow)
	}
	// Demand caps.
	for j, d := range inst.Demands {
		if composed.Flow[j] > d.Amount+1e-6*(1+d.Amount) {
			t.Fatalf("demand %d over-served", j)
		}
	}
}

func TestGeoPartitionCoversAll(t *testing.T) {
	inst := smallWAN(t, 200, tm.Uniform, 43)
	groups := GeoPartition(inst, 6, 2)
	seen := map[int]bool{}
	for _, g := range groups {
		for _, j := range g {
			if seen[j] {
				t.Fatalf("demand %d in two groups", j)
			}
			seen[j] = true
		}
	}
	if len(seen) != len(inst.Demands) {
		t.Fatalf("covered %d of %d demands", len(seen), len(inst.Demands))
	}
	if len(groups) < 2 {
		t.Fatalf("degenerate partition: %d groups", len(groups))
	}
}

func TestSolvePOPGeoFeasible(t *testing.T) {
	inst := smallWAN(t, 300, tm.Gravity, 47)
	geo, err := SolvePOPGeo(inst, MaxTotalFlow, core.Options{K: 4, Seed: 2, Parallel: true}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := geo.VerifyFeasible(inst, 1e-6); err != nil {
		t.Fatal(err)
	}
	exact, err := SolveLP(inst, MaxTotalFlow, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if geo.TotalFlow > exact.TotalFlow+1e-6 {
		t.Fatalf("geo %g beat exact %g", geo.TotalFlow, exact.TotalFlow)
	}
	if geo.TotalFlow <= 0 {
		t.Fatal("geo allocated nothing")
	}
}

func TestGeoVsRandomPartitioning(t *testing.T) {
	// Neither strictly dominates in general; both must be feasible and in a
	// sane band of the optimum on a granular instance.
	inst := smallWAN(t, 500, tm.Gravity, 53)
	exact, err := SolveLP(inst, MaxTotalFlow, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	random, err := SolvePOP(inst, MaxTotalFlow, core.Options{K: 4, Seed: 2, Parallel: true}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	geo, err := SolvePOPGeo(inst, MaxTotalFlow, core.Options{K: 4, Seed: 2, Parallel: true}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]*Allocation{"random": random, "geo": geo} {
		ratio := a.TotalFlow / exact.TotalFlow
		if ratio < 0.4 || ratio > 1.001 {
			t.Fatalf("%s ratio %g out of band", name, ratio)
		}
	}
}
