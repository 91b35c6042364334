package lp

import (
	"math/rand"
	"testing"
)

// TestDualDevexWeightsResetOnWarmInstall: entering the dual phase through
// initWarmDual must start from all-ones reference weights, whatever an
// earlier solve on the same workspace left behind.
func TestDualDevexWeightsResetOnWarmInstall(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	p := randomFeasibleLP(rng, 10, 24)
	sol, err := cloneProblem(p).SolveWithOptions(Options{})
	if err != nil || sol.Status != Optimal || sol.Basis == nil {
		t.Fatalf("setup solve: err=%v status=%v", err, sol.Status)
	}

	s := newSimplex(p, Options{})
	s.dualW = make([]float64, s.m)
	for i := range s.dualW {
		s.dualW[i] = 1e6 * float64(i+1)
	}
	if !s.initWarmDual(sol.Basis) {
		t.Fatal("initWarmDual rejected the problem's own optimal basis")
	}
	for i, w := range s.dualW {
		if w != 1 {
			t.Fatalf("dualW[%d] = %g after dual warm install, want 1", i, w)
		}
	}
}
