package cluster

import (
	"math"
	"slices"
	"testing"

	"pop/internal/lp"
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
	if tc := rateRow([]float64{1, 2, 4}, 0, coefs); tc != 0 || !slices.Equal(coefs, []float64{0, 0, 0}) {
		t.Fatalf("denominator 0: coefs %v, t %g", coefs, tc)
	}
	if tc := rateRow([]float64{1, 2, 4}, 2, coefs); tc != -1 || !slices.Equal(coefs, []float64{0.5, 1, 2}) {
		t.Fatalf("denominator 2: coefs %v, t %g", coefs, tc)
	}
	jobs := GenerateJobs(3, 1, 0)
	jobs[1].NumSteps = 0
	m := lp.NewModel(lp.Maximize)
	SoloModel(m, jobs, NewCluster(1, 1, 1), MakespanDenominator)
	if nv, nc := m.NumVariables(), m.NumConstraints(); nv != 3*3+1 || nc != 2*3+3 {
		t.Fatalf("SoloModel shape %d vars × %d rows, want 10 × 9", nv, nc)
	}
}

// TestNoConstrainingJob: a model in which no job has a positive rate-row
// denominator — no throughput, no scale, no steps left — caps t at 0
// instead of leaving it, and the LP, unbounded; every policy serves rows
// that pass VerifyFeasible. A model with one constraining job keeps t free.
func TestNoConstrainingJob(t *testing.T) {
	c := NewCluster(2, 2, 2)
	job := func(id int, thr []float64, scale, steps float64) Job {
		return Job{ID: id, Throughput: thr, Weight: 1, Scale: scale, NumSteps: steps, Priority: 1}
	}
	zero := job(1, []float64{0, 0, 0}, 1, 10)
	noScale := job(2, []float64{1, 2, 3}, 0, 10)
	done := job(3, []float64{1, 2, 3}, 1, 0)
	live := job(4, []float64{1, 2, 3}, 1, 10)
	policies := []struct {
		name  string
		solve func([]Job, Cluster, lp.Options) (*Allocation, error)
		jobs  []Job
	}{
		{"max-min", MaxMinFairness, []Job{zero, noScale}},
		{"makespan", MinMakespan, []Job{done}},
		{"space-sharing", MaxMinFairnessSpaceSharing, []Job{zero, noScale}},
	}
	for _, p := range policies {
		a, err := p.solve(p.jobs, c, lp.Options{})
		if err != nil {
			t.Fatalf("%s over %d unconstraining jobs: %v", p.name, len(p.jobs), err)
		}
		if err := VerifyFeasible(p.jobs, c, a, 1e-9); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		mixed := append(slices.Clone(p.jobs), live)
		if a, err = p.solve(mixed, c, lp.Options{}); err != nil || a.EffThr[len(mixed)-1] <= 0 {
			t.Fatalf("%s with a constraining job: %v, %+v", p.name, err, a)
		}
	}
	for _, tc := range []struct {
		jobs []Job
		ub   float64
	}{{[]Job{zero, noScale}, 0}, {[]Job{zero, live}, lp.Inf}} {
		m := lp.NewModel(lp.Maximize)
		SoloModel(m, tc.jobs, c, MaxMinDenominator(tc.jobs, c))
		if lb, ub := m.CopyProblem().Bounds(m.NumVariables() - 1); !math.IsInf(lb, -1) || ub != tc.ub {
			t.Fatalf("t in [%g, %g] over %v, want [-Inf, %g]", lb, ub, tc.jobs, tc.ub)
		}
	}
}
