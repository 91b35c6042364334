package lp_test

import (
	"fmt"
	"math"
	"testing"

	"pop/internal/core"
	"pop/internal/lp"
	"pop/internal/lp/gen"
	"pop/internal/te"
	"pop/internal/tm"
	"pop/internal/topo"
)

// TestMaintainedReducedCostsOnGenFamilies is TestMaintainedReducedCosts's
// pricing check on the small te, cluster and lb instances, at the default
// refactor cadence and at a cadence of three.
func TestMaintainedReducedCostsOnGenFamilies(t *testing.T) {
	for _, in := range gen.All(1) {
		if in.Size != gen.Small {
			continue
		}
		for _, every := range []int{512, 3} {
			label := fmt.Sprintf("%s every %d", in.Name(), every)
			if lp.CheckMaintainedPrices(t, label, in.P, lp.Options{}.ReinvertEvery(every)) == 0 {
				t.Fatalf("%s: no pricing pass checked", label)
			}
		}
	}
}

// TestCandidatePricingOnCaseStudies holds the candidate list's pick to the
// scan of every column at every pricing pass (lp's checkCandidatePricing)
// on the small and medium te, cluster and lb instances and on the four
// sub-LPs of one POP solve at the bench's batch-te shape — Kdl at 0.3
// scale, 1 000 gravity commodities on 4 paths at 30% of capacity, K = 4,
// client splitting at 0.25 — where the list does the pricing. Each solve
// ends as it does without the hook.
func TestCandidatePricingOnCaseStudies(t *testing.T) {
	for _, in := range gen.All(1) {
		if in.Size == gen.Large || testing.Short() && in.Size != gen.Small {
			continue
		}
		want, err := in.P.SolveWithOptions(lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var got *lp.Solution
		n := lp.CheckCandidatePricing(t, in.Name(), func() {
			if got, err = in.P.SolveWithOptions(lp.Options{}); err != nil {
				t.Fatal(err)
			}
		})
		if n < got.Iterations || got.Iterations != want.Iterations || got.Objective != want.Objective {
			t.Fatalf("%s: %d passes checked; hooked solve %d pivots to %v, plain %d to %v",
				in.Name(), n, got.Iterations, got.Objective, want.Iterations, want.Objective)
		}
	}

	tp := topo.GenerateScaled("Kdl", 0.3)
	demands := tm.Generate(tm.Config{Nodes: tp.G.N, Commodities: 1000, Model: tm.Gravity,
		TotalDemand: 0.3 * tp.TotalCapacity(), Seed: 1})
	inst := te.NewInstance(tp, demands, 4)
	solve := func() *te.Allocation {
		a, err := te.SolvePOP(inst, te.MaxTotalFlow, core.Options{K: 4, Seed: 1, SplitT: 0.25}, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	want := solve()
	var got *te.Allocation
	if n := lp.CheckCandidatePricing(t, "batch-te", func() { got = solve() }); n < 400 {
		t.Fatalf("batch-te: only %d pricing passes checked", n)
	}
	if math.Float64bits(got.TotalFlow) != math.Float64bits(want.TotalFlow) {
		t.Fatalf("batch-te: hooked total flow %v, plain %v", got.TotalFlow, want.TotalFlow)
	}
}
