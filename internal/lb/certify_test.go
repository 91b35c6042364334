package lb

import (
	"math"
	"math/rand"
	"testing"

	"pop/internal/lp"
)

// TestCertifiedInfeasibleAgreesWithCold replays the LP relaxations of
// seeded lb sub-MILPs (12 shards on 3 servers, the shape batch-lb's K=4
// sub-problems have) along branch-and-bound-like dives: fix a fractional
// placement indicator to 0 or 1, re-solve on the lp.Model from the parent's
// basis (a bound-only edit, so the dual simplex runs), and on an infeasible
// child try its sibling from the same parent basis. Every Infeasible the
// dual phase certified (WarmStarted) must also be Infeasible on a fresh
// Problem solved cold, and there must be enough of them for that to mean
// something.
func TestCertifiedInfeasibleAgreesWithCold(t *testing.T) {
	const wantCertified = 200
	rng := rand.New(rand.NewSource(5))
	certified, infeasible := 0, 0
	solve := func(m *lp.Model, parent *lp.Basis) *lp.Solution {
		m.SetBasis(parent)
		sol, err := m.SolveWithOptions(lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != lp.Infeasible {
			return sol
		}
		infeasible++
		if !sol.WarmStarted {
			return sol
		}
		certified++
		cold, err := m.CopyProblem().Solve()
		if err != nil {
			t.Fatal(err)
		}
		if cold.Status != lp.Infeasible {
			t.Fatalf("certified Infeasible, cold %v", cold.Status)
		}
		return sol
	}
	for seed := int64(1); seed <= 16; seed++ {
		inst := NewInstance(12, 3, 0.05, seed)
		inst.ShiftLoads(seed + 100)
		prob, _, mVar := BuildMILP(inst)
		var bins []int
		for _, row := range mVar {
			bins = append(bins, row...)
		}
		m := lp.NewModelFromProblem(prob.LP)
		root, err := m.SolveWithOptions(lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if root.Status != lp.Optimal {
			continue
		}
		for dive := 0; dive < 60; dive++ {
			for _, v := range bins {
				m.SetBounds(v, 0, 1)
			}
			sol := root
			for sol.Status == lp.Optimal {
				var frac []int
				for _, v := range bins {
					if f := sol.X[v] - math.Floor(sol.X[v]); f > 1e-6 && f < 1-1e-6 {
						frac = append(frac, v)
					}
				}
				if len(frac) == 0 {
					break
				}
				v := frac[rng.Intn(len(frac))]
				parent, first := sol.Basis, float64(rng.Intn(2))
				m.SetBounds(v, first, first)
				if sol = solve(m, parent); sol.Status == lp.Infeasible {
					m.SetBounds(v, 1-first, 1-first)
					sol = solve(m, parent)
				}
			}
		}
	}
	t.Logf("%d infeasible children, %d certified by the dual phase", infeasible, certified)
	if certified < wantCertified {
		t.Fatalf("%d certified Infeasible verdicts, want at least %d", certified, wantCertified)
	}
}
