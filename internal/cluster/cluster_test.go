package cluster

import (
	"math"
	"testing"

	"pop/internal/core"
	"pop/internal/lp"
)

func approxEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestGenerateJobsShape(t *testing.T) {
	jobs := GenerateJobs(50, 1, 0.2)
	if len(jobs) != 50 {
		t.Fatalf("got %d jobs", len(jobs))
	}
	for _, j := range jobs {
		if len(j.Throughput) != 3 {
			t.Fatalf("job %d has %d types", j.ID, len(j.Throughput))
		}
		// V100 strictly faster than K80 for every model.
		if j.Throughput[2] <= j.Throughput[0] {
			t.Fatalf("job %d: V100 %g <= K80 %g", j.ID, j.Throughput[2], j.Throughput[0])
		}
		if j.Scale != 1 && j.Scale != 2 && j.Scale != 4 {
			t.Fatalf("job %d scale %g", j.ID, j.Scale)
		}
		if j.MemFrac <= 0 || j.MemFrac >= 1 {
			t.Fatalf("job %d memfrac %g", j.ID, j.MemFrac)
		}
	}
}

func TestMaxMinFairnessBasics(t *testing.T) {
	jobs := GenerateJobs(24, 2, 0.1)
	c := NewCluster(8, 8, 8)
	a, err := MaxMinFairness(jobs, c, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyFeasible(jobs, c, a, 1e-6); err != nil {
		t.Fatal(err)
	}
	min, mean := MinMean(NormalizedRatios(jobs, c, a))
	if min <= 0 {
		t.Fatalf("min normalized throughput %g", min)
	}
	// Tolerance: when every job gets the same ratio (the equal-share
	// optimum), the summed mean can round one ulp below the min.
	if mean < min-1e-12*(1+math.Abs(min)) {
		t.Fatalf("mean %g < min %g", mean, min)
	}
}

func TestMaxMinFairnessEqualJobsSymmetric(t *testing.T) {
	// Identical jobs must receive identical normalized throughputs.
	base := GenerateJobs(1, 3, 0)[0]
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = base
		jobs[i].ID = i
	}
	c := NewCluster(2, 2, 2)
	a, err := MaxMinFairness(jobs, c, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratios := NormalizedRatios(jobs, c, a)
	for i := 1; i < len(ratios); i++ {
		if !approxEq(ratios[i], ratios[0], 1e-5) {
			t.Fatalf("asymmetric ratios: %v", ratios)
		}
	}
}

func TestWeightsShiftAllocation(t *testing.T) {
	jobs := GenerateJobs(8, 5, 0)
	c := NewCluster(2, 2, 2)
	a1, err := MaxMinFairness(jobs, c, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Doubling one job's weight must not increase its normalized (weighted)
	// share; the LP equalizes the weighted ratios.
	jobs2 := append([]Job(nil), jobs...)
	jobs2[0].Weight = 4
	a2, err := MaxMinFairness(jobs2, c, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Weighted fairness gives the heavy job more raw throughput.
	if a2.EffThr[0] <= a1.EffThr[0]*1.05 {
		t.Fatalf("weight had no effect: %g vs %g", a2.EffThr[0], a1.EffThr[0])
	}
}

func TestMinMakespan(t *testing.T) {
	jobs := GenerateJobs(20, 7, 0.1)
	c := NewCluster(6, 6, 6)
	a, err := MinMakespan(jobs, c, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyFeasible(jobs, c, a, 1e-6); err != nil {
		t.Fatal(err)
	}
	ms := Makespan(jobs, a)
	if math.IsInf(ms, 1) || ms <= 0 {
		t.Fatalf("makespan = %g", ms)
	}
	// The makespan LP must beat (or tie) max-min fairness on makespan.
	b, err := MaxMinFairness(jobs, c, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if Makespan(jobs, a) > Makespan(jobs, b)+1e-6*Makespan(jobs, b) {
		t.Fatalf("makespan policy %g worse than fairness %g", Makespan(jobs, a), Makespan(jobs, b))
	}
}

func TestSpaceSharingBeatsSolo(t *testing.T) {
	// With more jobs than GPUs, space sharing strictly helps the min ratio.
	jobs := GenerateJobs(18, 11, 0)
	c := NewCluster(3, 3, 3)
	solo, err := MaxMinFairness(jobs, c, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := MaxMinFairnessSpaceSharing(jobs, c, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyFeasible(jobs, c, shared, 1e-6); err != nil {
		t.Fatal(err)
	}
	minSolo, _ := MinMean(NormalizedRatios(jobs, c, solo))
	minShared, _ := MinMean(NormalizedRatios(jobs, c, shared))
	if minShared < minSolo-1e-6 {
		t.Fatalf("space sharing hurt: %g < %g", minShared, minSolo)
	}
}

func TestGandivaFeasibleButWorse(t *testing.T) {
	jobs := GenerateJobs(18, 13, 0)
	c := NewCluster(3, 3, 3)
	lpAlloc, err := MaxMinFairnessSpaceSharing(jobs, c, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gandiva := Gandiva(jobs, c, 1)
	if err := VerifyFeasible(jobs, c, gandiva, 1e-6); err != nil {
		t.Fatal(err)
	}
	minLP, _ := MinMean(NormalizedRatios(jobs, c, lpAlloc))
	minG, _ := MinMean(NormalizedRatios(jobs, c, gandiva))
	if minG > minLP+1e-6 {
		t.Fatalf("heuristic beat the LP on its own objective: %g > %g", minG, minLP)
	}
}

func TestPOPMaxMinNearExact(t *testing.T) {
	jobs := GenerateJobs(48, 17, 0)
	c := NewCluster(16, 16, 16)
	exact, err := MaxMinFairness(jobs, c, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4} {
		a, err := SolvePOP(jobs, c, MaxMinFairness, core.Options{K: k, Seed: 5, Parallel: true}, lp.Options{})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := VerifyFeasible(jobs, c, a, 1e-6); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		minE, meanE := MinMean(NormalizedRatios(jobs, c, exact))
		minP, meanP := MinMean(NormalizedRatios(jobs, c, a))
		if minP > minE+1e-6 {
			t.Fatalf("k=%d: POP min %g beat exact %g", k, minP, minE)
		}
		if meanP < 0.6*meanE {
			t.Fatalf("k=%d: POP mean %g far below exact %g", k, meanP, meanE)
		}
		_ = meanE
	}
}

func TestPOPSpaceSharingVariableReduction(t *testing.T) {
	jobs := GenerateJobs(32, 19, 0)
	c := NewCluster(8, 8, 8)
	exact, err := MaxMinFairnessSpaceSharing(jobs, c, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := SolvePOP(jobs, c, MaxMinFairnessSpaceSharing, core.Options{K: 4, Seed: 5, Parallel: true}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyFeasible(jobs, c, a, 1e-6); err != nil {
		t.Fatal(err)
	}
	// Pair variables shrink ~quadratically: 4 sub-problems of (n/4)² pairs
	// ≈ n²/4 total versus n².
	if a.LPVariables*3 > exact.LPVariables {
		t.Fatalf("expected ≥3x variable reduction: POP %d vs exact %d",
			a.LPVariables, exact.LPVariables)
	}
}

func TestMakespanPOP(t *testing.T) {
	jobs := GenerateJobs(30, 29, 0.1)
	c := NewCluster(10, 10, 10)
	exact, err := MinMakespan(jobs, c, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := SolvePOP(jobs, c, MinMakespan, core.Options{K: 4, Seed: 9}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyFeasible(jobs, c, a, 1e-6); err != nil {
		t.Fatal(err)
	}
	msE, msP := Makespan(jobs, exact), Makespan(jobs, a)
	if msP < msE-1e-6*msE {
		t.Fatalf("POP makespan %g beat exact %g", msP, msE)
	}
	// Paper: nearly identical makespan; allow 30% at this small scale.
	if msP > 1.3*msE {
		t.Fatalf("POP makespan %g far above exact %g", msP, msE)
	}
}

func TestLogUtilityInfForZeroThroughput(t *testing.T) {
	jobs := []Job{{Throughput: []float64{1}, Weight: 1, Scale: 1}}
	a := &Allocation{X: [][]float64{{0}}, EffThr: []float64{0}}
	if !math.IsInf(LogUtility(jobs, a), -1) {
		t.Fatal("expected -Inf for zero allocation")
	}
}

func TestEqualShareClamped(t *testing.T) {
	jobs := GenerateJobs(2, 31, 0)
	c := NewCluster(10, 10, 10) // plenty of GPUs: shares clamp at 1 total
	sum := 0.0
	for _, v := range EqualShare(jobs, c) {
		sum += v
	}
	if sum > 1+1e-9 {
		t.Fatalf("equal share row sums to %g", sum)
	}
}

func TestInterferenceBounds(t *testing.T) {
	light := Job{MemFrac: 0.1}
	heavy := Job{MemFrac: 0.9}
	if k := Interference(light, light); k < 0.8 {
		t.Fatalf("light pair retention %g too low", k)
	}
	if k := Interference(heavy, heavy); k > 0.5 {
		t.Fatalf("heavy pair retention %g too high", k)
	}
	if k := Interference(heavy, heavy); k < 0.25-1e-12 {
		t.Fatalf("retention %g below floor", k)
	}
}

func TestEmptyJobs(t *testing.T) {
	c := NewCluster(1, 1, 1)
	a, err := MaxMinFairness(nil, c, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.EffThr) != 0 {
		t.Fatal("expected empty allocation")
	}
}
