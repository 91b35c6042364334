package price

import (
	"testing"

	"pop/internal/cluster"
	"pop/internal/lp"
)

// maxMinGapTol is the documented quality tolerance of the price engine on
// max-min cluster instances: the price allocation's min normalized ratio
// stays within this relative gap of the global LP optimum.
const maxMinGapTol = 0.05

func TestMaxMinQualityVsLP(t *testing.T) {
	for _, n := range []int{24, 80, 240} {
		for seed := int64(1); seed <= 3; seed++ {
			jobs := cluster.GenerateJobs(n, seed, 0.3)
			c := cluster.NewCluster(float64(n)/5, float64(n)/5, float64(n)/5)

			lpA, err := cluster.MaxMinFairness(jobs, c, lp.Options{})
			if err != nil {
				t.Fatalf("n=%d seed=%d: LP: %v", n, seed, err)
			}
			lpObj := MaxMinObjective(jobs, c, lpA)

			pa, sol, err := solveMaxMin(jobs, c, Options{Seed: seed})
			if err != nil {
				t.Fatalf("n=%d seed=%d: price: %v", n, seed, err)
			}
			if err := cluster.VerifyFeasible(jobs, c, pa, 1e-6); err != nil {
				t.Fatalf("n=%d seed=%d: infeasible price allocation: %v", n, seed, err)
			}
			pObj := MaxMinObjective(jobs, c, pa)
			gap := (lpObj - pObj) / lpObj
			t.Logf("n=%d seed=%d: lp=%.4f price=%.4f gap=%.2f%% iters=%d converged=%v residual=%.4f",
				n, seed, lpObj, pObj, 100*gap, sol.Iterations, sol.Converged, sol.Residual)
			if pObj > lpObj*(1+1e-6) {
				t.Errorf("n=%d seed=%d: price objective %.6f exceeds LP optimum %.6f on a feasible point",
					n, seed, pObj, lpObj)
			}
			if gap > maxMinGapTol {
				t.Errorf("n=%d seed=%d: max-min gap %.2f%% exceeds %.0f%% tolerance (lp=%.4f price=%.4f)",
					n, seed, 100*gap, 100*maxMinGapTol, lpObj, pObj)
			}
		}
	}
}
