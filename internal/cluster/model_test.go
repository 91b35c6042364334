package cluster

import (
	"slices"
	"testing"
)

// TestSlotsOrder pins the slot enumeration both space-sharing builds
// share: solo slots in job order, then single-GPU pairs in i<j order.
func TestSlotsOrder(t *testing.T) {
	jobs := GenerateJobs(4, 1, 0)
	jobs[2].Scale = 2
	want := []Pair{{0, -1}, {1, -1}, {2, -1}, {3, -1}, {0, 1}, {0, 3}, {1, 3}}
	if got := Slots(jobs); !slices.Equal(got, want) {
		t.Fatalf("Slots = %v, want %v", got, want)
	}
}

// TestRateRowDegenerate: a job with no positive denominator keeps its rate
// row, all zeros, so the layout does not depend on the data.
func TestRateRowDegenerate(t *testing.T) {
	coefs := []float64{7, 7, 7}
	if tc := RateRow([]float64{1, 2, 4}, 0, coefs); tc != 0 || !slices.Equal(coefs, []float64{0, 0, 0}) {
		t.Fatalf("denominator 0: coefs %v, t %g", coefs, tc)
	}
	if tc := RateRow([]float64{1, 2, 4}, 2, coefs); tc != -1 || !slices.Equal(coefs, []float64{0.5, 1, 2}) {
		t.Fatalf("denominator 2: coefs %v, t %g", coefs, tc)
	}
	jobs := GenerateJobs(3, 1, 0)
	jobs[1].NumSteps = 0
	m := SoloModel(jobs, NewCluster(1, 1, 1), MakespanDenominator)
	if nv, nc := m.NumVariables(), m.NumConstraints(); nv != 3*3+1 || nc != 2*3+3 {
		t.Fatalf("SoloModel shape %d vars × %d rows, want 10 × 9", nv, nc)
	}
}
