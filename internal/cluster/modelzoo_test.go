package cluster

import (
	"math/rand"
	"testing"

	"pop/internal/core"
	"pop/internal/lp"
)

// zooJobs synthesizes n single-GPU jobs from training-job archetypes with
// Gavel-like heterogeneity: jobs disagree not just on speed but on which GPU
// they prefer and by how much (vision models gain 3–5× from K80 to V100,
// transformers 6–10×, RL workloads little). Each archetype is its K80
// steps/sec and its P100 and V100 speedups.
func zooJobs(n int, seed int64) []Job {
	zoo := [][3]float64{
		{1.0, 2.4, 4.5}, {2.2, 2.1, 3.8}, {0.6, 3.0, 8.5}, {1.4, 2.2, 5.0},
		{3.0, 1.8, 3.2}, {4.0, 1.3, 1.6}, {0.8, 2.6, 5.5},
	}
	rng := rand.New(rand.NewSource(seed))
	jitter := func() float64 { return 0.85 + 0.3*rng.Float64() }
	jobs := make([]Job, n)
	for j := range jobs {
		t := zoo[rng.Intn(len(zoo))]
		base := t[0] * jitter()
		jobs[j] = Job{ID: j, Throughput: []float64{base, base * t[1] * jitter(), base * t[2] * jitter()},
			Weight: 1, Scale: 1, NumSteps: (0.5 + rng.Float64()) * 60000, Priority: 1}
	}
	return jobs
}

func TestZooHeterogeneityMatters(t *testing.T) {
	// Heterogeneity-aware max-min should place RL-like jobs (tiny V100
	// gain) on slower GPUs and transformers on V100s. Check aggregate: the
	// allocation's mean normalized throughput must beat a homogeneous
	// random assignment proxy — here, simply assert the exact LP finds a
	// feasible allocation with min ratio > 0 and that jobs with the largest
	// V100 speedup get at least as much V100 share as those with the least.
	jobs := zooJobs(30, 11)
	c := NewCluster(10, 10, 10)
	a, err := MaxMinFairness(jobs, c, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyFeasible(jobs, c, a, 1e-6); err != nil {
		t.Fatal(err)
	}
	// Identify extreme jobs by V100/K80 ratio.
	hi, lo := 0, 0
	for idx, j := range jobs {
		r := j.Throughput[2] / j.Throughput[0]
		if r > jobs[hi].Throughput[2]/jobs[hi].Throughput[0] {
			hi = idx
		}
		if r < jobs[lo].Throughput[2]/jobs[lo].Throughput[0] {
			lo = idx
		}
	}
	v100Share := func(idx int) float64 {
		total := 0.0
		for _, v := range a.X[idx] {
			total += v
		}
		if total == 0 {
			return 0
		}
		return a.X[idx][2] / total
	}
	if v100Share(hi) < v100Share(lo)-1e-6 {
		t.Fatalf("V100-hungry job got share %g, V100-indifferent job %g",
			v100Share(hi), v100Share(lo))
	}
}

func TestZooUnderPOPSpaceSharing(t *testing.T) {
	jobs := zooJobs(24, 17)
	c := NewCluster(6, 6, 6)
	a, err := SolvePOP(jobs, c, MaxMinFairnessSpaceSharing, core.Options{K: 2, Seed: 1, Parallel: true}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyFeasible(jobs, c, a, 1e-6); err != nil {
		t.Fatal(err)
	}
}
