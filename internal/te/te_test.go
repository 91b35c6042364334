package te

import (
	"math"
	"testing"

	"pop/internal/core"
	"pop/internal/lp"
	"pop/internal/tm"
	"pop/internal/topo"
)

func tinyInstance(t *testing.T, commodities int, model tm.Model) *Instance {
	t.Helper()
	tp := topo.Tiny()
	ds := tm.Generate(tm.Config{
		Nodes: tp.G.N, Commodities: commodities, Model: model,
		TotalDemand: tp.TotalCapacity() * 0.5, Seed: 11,
	})
	return NewInstance(tp, ds, 4)
}

func smallWAN(t *testing.T, commodities int, model tm.Model, seed int64) *Instance {
	t.Helper()
	tp := topo.GenerateScaled("Deltacom", 0.3) // ~34 nodes
	ds := tm.Generate(tm.Config{
		Nodes: tp.G.N, Commodities: commodities, Model: model,
		TotalDemand: tp.TotalCapacity() * 0.4, Seed: seed,
	})
	return NewInstance(tp, ds, 4)
}

func TestExactLPFeasibleAndPositive(t *testing.T) {
	inst := tinyInstance(t, 12, tm.Uniform)
	a, err := SolveLP(inst, MaxTotalFlow, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.VerifyFeasible(inst, 1e-6); err != nil {
		t.Fatal(err)
	}
	if a.TotalFlow <= 0 {
		t.Fatal("no flow allocated")
	}
}

func TestExactLPSaturatesSingleLink(t *testing.T) {
	// One demand over a single bottleneck link: flow = min(demand, capacity).
	tp := topo.Tiny()
	ds := []tm.Demand{{Src: 0, Dst: 1, Amount: 25}} // link capacity 10
	inst := NewInstance(tp, ds, 4)
	a, err := SolveLP(inst, MaxTotalFlow, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 0→1 direct (cap 10) plus 0→3→4→1 (cap 10) = 20 achievable.
	if a.TotalFlow < 19.9 || a.TotalFlow > 20.1 {
		t.Fatalf("total flow = %g, want ≈20", a.TotalFlow)
	}
}

func TestConcurrentFlowObjective(t *testing.T) {
	inst := tinyInstance(t, 10, tm.Uniform)
	a, err := SolveLP(inst, MaxConcurrentFlow, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.VerifyFeasible(inst, 1e-6); err != nil {
		t.Fatal(err)
	}
	if a.MinFraction <= 0 || a.MinFraction > 1+1e-9 {
		t.Fatalf("min fraction = %g", a.MinFraction)
	}
	// Concurrent-flow optimum must weakly dominate the max-flow solution's
	// min fraction.
	b, err := SolveLP(inst, MaxTotalFlow, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.MinFraction+1e-6 < b.MinFraction {
		t.Fatalf("concurrent %g < max-flow %g", a.MinFraction, b.MinFraction)
	}
}

func TestPOPFeasibleAndNearOptimal(t *testing.T) {
	// Quality depends on granularity (condition 2 of §2): with 600
	// commodities on a ~34-node WAN, POP-2 lands within a few percent of
	// optimal and POP-4 within ~10% (the paper's near-optimal regime needs
	// its 10⁵–10⁶ commodity scale; the trend is what we assert here).
	inst := smallWAN(t, 600, tm.Gravity, 3)
	exact, err := SolveLP(inst, MaxTotalFlow, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	minRatio := map[int]float64{1: 0.999, 2: 0.93, 4: 0.85}
	for _, k := range []int{1, 2, 4} {
		a, err := SolvePOP(inst, MaxTotalFlow, core.Options{K: k, Seed: 1, Parallel: true}, lp.Options{})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := a.VerifyFeasible(inst, 1e-6); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		ratio := a.TotalFlow / exact.TotalFlow
		if ratio > 1+1e-6 {
			t.Fatalf("k=%d: POP beat the exact optimum: %g", k, ratio)
		}
		if ratio < minRatio[k] {
			t.Fatalf("k=%d: POP ratio too low: %g < %g", k, ratio, minRatio[k])
		}
	}
}

// TestPOPK1MatchesExact: a single sub-problem is the exact LP, whether K = 1
// was asked for or K was clamped to a lone commodity — whose sub-problem must
// then see the whole capacity, not 1/K of it. With fewer commodities than K
// (3 vs 8) every clamped sub-problem still solves and the result is feasible.
// The NCFlow composition is a heuristic, so it is held to feasibility only.
func TestPOPK1MatchesExact(t *testing.T) {
	const ncflow = "pop+ncflow"
	solvers := map[string]func(*Instance, Objective, core.Options, lp.Options) (*Allocation, error){
		"pop": SolvePOP, "sharded": SolveSharded,
		ncflow: func(inst *Instance, _ Objective, opts core.Options, _ lp.Options) (*Allocation, error) {
			return SolvePOPWithNCFlow(inst, opts, NCFlowOptions{})
		},
	}
	for _, tc := range []struct {
		commodities, k int
		exact          bool
	}{{8, 1, true}, {1, 8, true}, {3, 8, false}} {
		inst := tinyInstance(t, tc.commodities, tm.Uniform)
		exact, err := SolveLP(inst, MaxTotalFlow, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for name, solve := range solvers {
			a, err := solve(inst, MaxTotalFlow, core.Options{K: tc.k, Seed: 9}, lp.Options{})
			if err != nil {
				t.Fatalf("%s n=%d K=%d: %v", name, tc.commodities, tc.k, err)
			}
			if err := a.VerifyFeasible(inst, 1e-6); err != nil {
				t.Fatalf("%s n=%d K=%d: %v", name, tc.commodities, tc.k, err)
			}
			if tc.exact && name != ncflow && math.Abs(a.TotalFlow-exact.TotalFlow) > 1e-6*(1+exact.TotalFlow) {
				t.Fatalf("%s n=%d K=%d: %g != exact %g", name, tc.commodities, tc.k, a.TotalFlow, exact.TotalFlow)
			}
		}
	}
}

func TestPOPParallelMatchesSerial(t *testing.T) {
	inst := smallWAN(t, 40, tm.Uniform, 5)
	serial, err := SolvePOP(inst, MaxTotalFlow, core.Options{K: 4, Seed: 2}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := SolvePOP(inst, MaxTotalFlow, core.Options{K: 4, Seed: 2, Parallel: true}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(serial.TotalFlow-parallel.TotalFlow) > 1e-9*(1+serial.TotalFlow) {
		t.Fatalf("parallel %g != serial %g", parallel.TotalFlow, serial.TotalFlow)
	}
}

func TestPOPVariableReduction(t *testing.T) {
	inst := smallWAN(t, 60, tm.Uniform, 7)
	exact, _ := SolveLP(inst, MaxTotalFlow, lp.Options{})
	a, err := SolvePOP(inst, MaxTotalFlow, core.Options{K: 4, Seed: 1}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// With k sub-problems each LP holds ~1/k of the commodity-path vars;
	// totals match (resource splitting does not duplicate variables).
	if a.LPVariables > exact.LPVariables+4 {
		t.Fatalf("POP variables %d > exact %d", a.LPVariables, exact.LPVariables)
	}
}

func TestClientSplittingHelpsSkewedTraffic(t *testing.T) {
	inst := smallWAN(t, 50, tm.Poisson, 13)
	exact, err := SolveLP(inst, MaxTotalFlow, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	noSplit, err := SolvePOP(inst, MaxTotalFlow, core.Options{K: 8, Seed: 3}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	withSplit, err := SolvePOP(inst, MaxTotalFlow, core.Options{K: 8, Seed: 3, SplitT: 0.75}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := withSplit.VerifyFeasible(inst, 1e-6); err != nil {
		t.Fatal(err)
	}
	rNo := noSplit.TotalFlow / exact.TotalFlow
	rSplit := withSplit.TotalFlow / exact.TotalFlow
	if rSplit < rNo-1e-9 {
		t.Fatalf("client splitting hurt: %g vs %g", rSplit, rNo)
	}
}

func TestShardedCollapsesAtHighK(t *testing.T) {
	inst := smallWAN(t, 40, tm.Gravity, 17)
	popA, err := SolvePOP(inst, MaxTotalFlow, core.Options{K: 8, Seed: 3}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shard, err := SolveSharded(inst, MaxTotalFlow, core.Options{K: 8, Seed: 3}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if shard.TotalFlow > popA.TotalFlow {
		t.Fatalf("sharded %g should lose to resource splitting %g at k=8",
			shard.TotalFlow, popA.TotalFlow)
	}
}

func TestCSPFFeasibleAndBelowOptimal(t *testing.T) {
	inst := smallWAN(t, 50, tm.Gravity, 19)
	exact, err := SolveLP(inst, MaxTotalFlow, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := SolveCSPF(inst)
	if err := a.VerifyFeasible(inst, 1e-9); err != nil {
		t.Fatal(err)
	}
	if a.TotalFlow > exact.TotalFlow+1e-6 {
		t.Fatalf("CSPF %g beat exact %g", a.TotalFlow, exact.TotalFlow)
	}
	if a.TotalFlow <= 0 {
		t.Fatal("CSPF allocated nothing")
	}
}

func TestNCFlowFeasibleAndBelowOptimal(t *testing.T) {
	inst := smallWAN(t, 50, tm.Gravity, 23)
	exact, err := SolveLP(inst, MaxTotalFlow, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := SolveNCFlow(inst, NCFlowOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Feasibility: edge loads within capacity (PathFlow-based verify does
	// not apply because intra-cluster flows are tracked only in EdgeFlow).
	for _, e := range inst.Topo.G.Edges {
		if a.EdgeFlow[e.ID] > e.Capacity+1e-6*(1+e.Capacity) {
			t.Fatalf("edge %d over capacity: %g > %g", e.ID, a.EdgeFlow[e.ID], e.Capacity)
		}
	}
	if a.TotalFlow > exact.TotalFlow+1e-6 {
		t.Fatalf("NCFlow %g beat exact %g", a.TotalFlow, exact.TotalFlow)
	}
	if a.TotalFlow <= 0 {
		t.Fatal("NCFlow allocated nothing")
	}
}

func TestPOPConcurrentFlow(t *testing.T) {
	inst := smallWAN(t, 30, tm.Uniform, 29)
	exact, err := SolveLP(inst, MaxConcurrentFlow, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := SolvePOP(inst, MaxConcurrentFlow, core.Options{K: 4, Seed: 5}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.VerifyFeasible(inst, 1e-6); err != nil {
		t.Fatal(err)
	}
	if a.MinFraction > exact.MinFraction+1e-6 {
		t.Fatalf("POP fraction %g beat exact %g", a.MinFraction, exact.MinFraction)
	}
}

func TestUnroutableDemand(t *testing.T) {
	// A demand with no path (disconnected node pair) must get zero flow and
	// not break the LP.
	tp := topo.Tiny()
	ds := []tm.Demand{{Src: 0, Dst: 5, Amount: 3}}
	inst := NewInstance(tp, ds, 2)
	if len(inst.Paths[0]) == 0 {
		t.Fatal("tiny grid should route 0→5") // sanity: grid is connected
	}
	// Make a genuinely unroutable one: graph with an isolated node.
	g2 := topo.Tiny()
	ds2 := []tm.Demand{{Src: 0, Dst: 0, Amount: 0}}
	inst2 := NewInstance(g2, ds2, 2)
	a, err := SolveLP(inst2, MaxTotalFlow, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalFlow != 0 {
		t.Fatalf("flow = %g for empty instance", a.TotalFlow)
	}
}

func TestInstanceVariableCount(t *testing.T) {
	inst := tinyInstance(t, 10, tm.Uniform)
	want := 0
	for _, ps := range inst.Paths {
		want += len(ps)
	}
	if inst.NumVariables() != want {
		t.Fatalf("NumVariables = %d, want %d", inst.NumVariables(), want)
	}
}
