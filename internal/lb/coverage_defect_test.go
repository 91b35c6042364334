package lb

import (
	"math"
	"testing"

	"pop/internal/core"
	"pop/internal/milp"
)

// coverageTol is the repository's coverage invariant: every shard's
// fractions sum to 1 within it.
const coverageTol = 1e-6

// coverageError is the largest |Σ_j Frac[i][j] − 1| over shards, and the
// shard it occurs at.
func coverageError(a *Assignment) (worst float64, shard int) {
	for i, row := range a.Frac {
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if e := math.Abs(sum - 1); e > worst {
			worst, shard = e, i
		}
	}
	return worst, shard
}

// TestPOPCoverageDefect replays the rounds batch-lb plays — 48 shards on 12
// servers at 5% tolerance, K=4, a 400-node cap, instance i seeded i+1 and
// its POP partition and load shifts seeded 2000+i — over instances 0–2 for
// three rounds each. Instance 1's third round used to return a hot shard
// whose fractions sum to 0.99953: phase 1 accepted a sub-problem relaxation
// whose artificials summed to less than its 5.8e-4 tolerance, and branch
// and bound installed the point as its incumbent. lp's
// TestInfeasibleByLessThanSumRule holds that relaxation with the integers
// fixed.
func TestPOPCoverageDefect(t *testing.T) {
	const k = 4
	milpOpts := milp.Options{MaxNodes: 400}
	worst := 0.0
	for i := 0; i < 3; i++ {
		inst := NewInstance(48, 12, 0.05, int64(i+1))
		seed := int64(2000 + i)
		for r := 0; r < 3; r++ {
			inst.ShiftLoads(seed + int64(r)*101)
			a, err := SolvePOP(inst, core.Options{K: k, Seed: seed, Parallel: true}, milpOpts)
			if err != nil {
				t.Fatalf("instance %d round %d: %v", i, r, err)
			}
			if err := VerifyFeasible(inst, a, coverageTol); err != nil {
				t.Errorf("instance %d round %d: %v", i, r, err)
			}
			if e, _ := coverageError(a); e > worst {
				worst = e
			}
			inst.Placement = a.Placed
		}
	}
	t.Logf("worst coverage error %.6g (bound %g)", worst, coverageTol)
}
