package te

import (
	"testing"
	"testing/quick"

	"pop/internal/core"
	"pop/internal/lp"
	"pop/internal/tm"
	"pop/internal/topo"
)

// TestPropertyPOPAlwaysFeasibleAndBounded: for random seeds, traffic
// models, fan-outs, and splitting thresholds, the coalesced POP allocation
// is feasible and never exceeds the exact optimum.
func TestPropertyPOPAlwaysFeasibleAndBounded(t *testing.T) {
	tp := topo.GenerateScaled("Deltacom", 0.25)
	exactCache := map[int64]float64{}

	f := func(seed int64, kRaw, modelRaw, splitRaw uint8) bool {
		tmSeed := seed%4 + 1 // few distinct TMs so the exact solve caches
		model := tm.Models()[int(modelRaw)%4]
		_ = model
		ds := tm.Generate(tm.Config{
			Nodes: tp.G.N, Commodities: 150, Model: tm.Models()[int(modelRaw)%4],
			TotalDemand: tp.TotalCapacity() * 0.3, Seed: tmSeed,
		})
		inst := NewInstance(tp, ds, 4)

		cacheKey := tmSeed*10 + int64(modelRaw%4)
		exactFlow, ok := exactCache[cacheKey]
		if !ok {
			exact, err := SolveLP(inst, MaxTotalFlow, lp.Options{})
			if err != nil {
				t.Logf("exact: %v", err)
				return false
			}
			exactFlow = exact.TotalFlow
			exactCache[cacheKey] = exactFlow
		}

		k := 1 + int(kRaw)%8
		splitT := float64(splitRaw%3) * 0.5
		a, err := SolvePOP(inst, MaxTotalFlow,
			core.Options{K: k, Seed: seed, SplitT: splitT, Parallel: true}, lp.Options{})
		if err != nil {
			t.Logf("pop: %v", err)
			return false
		}
		if err := a.VerifyFeasible(inst, 1e-6); err != nil {
			t.Logf("seed=%d k=%d t=%g: %v", seed, k, splitT, err)
			return false
		}
		if a.TotalFlow > exactFlow*(1+1e-6) {
			t.Logf("seed=%d k=%d: POP %g beat exact %g", seed, k, a.TotalFlow, exactFlow)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyShardedNeverBeatsResourceSplit: across seeds, sharding the
// topology (Fig 15's ablation) never beats resource splitting at the same
// k by more than noise. (The paper's claim is one-directional and strong;
// we allow a tiny epsilon for degenerate tiny-k cases.)
func TestPropertyShardedNeverBeatsResourceSplit(t *testing.T) {
	tp := topo.GenerateScaled("Cogentco", 0.2)
	ds := tm.Generate(tm.Config{
		Nodes: tp.G.N, Commodities: 200, Model: tm.Gravity,
		TotalDemand: tp.TotalCapacity() * 0.3, Seed: 5,
	})
	inst := NewInstance(tp, ds, 4)

	f := func(seed int64, kRaw uint8) bool {
		k := 2 + int(kRaw)%7
		split, err := SolvePOP(inst, MaxTotalFlow, core.Options{K: k, Seed: seed, Parallel: true}, lp.Options{})
		if err != nil {
			return false
		}
		shard, err := SolveSharded(inst, MaxTotalFlow, core.Options{K: k, Seed: seed, Parallel: true}, lp.Options{})
		if err != nil {
			return false
		}
		return shard.TotalFlow <= split.TotalFlow*1.10+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyClientSplittingPreservesDemand: the demand handed to the
// sub-solvers totals the original demand for any threshold, and every
// virtual commodity keeps its original's endpoints and paths.
func TestPropertyClientSplittingPreservesDemand(t *testing.T) {
	tp := topo.Tiny()
	f := func(seed int64, tRaw uint8) bool {
		ds := tm.Generate(tm.Config{
			Nodes: tp.G.N, Commodities: 20, Model: tm.Poisson,
			TotalDemand: 100, Seed: seed,
		})
		inst := NewInstance(tp, ds, 2)
		splitT := float64(tRaw%20) / 10
		total, virtual, ok := 0.0, 0, true
		_, err := solvePOP(inst, core.Options{K: 3, Seed: seed, SplitT: splitT}, nil, true,
			func(sub *Instance, _ int) (*Allocation, error) {
				for j, d := range sub.Demands {
					total += d.Amount
					virtual++
					for _, p := range sub.Paths[j] {
						ok = ok && p.Nodes[0] == d.Src && p.Nodes[len(p.Nodes)-1] == d.Dst
					}
				}
				return newAllocation(sub), nil
			})
		return err == nil && ok && total > 99.9999 && total < 100.0001 && virtual >= len(ds)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
