// Cluster scheduling example: heterogeneity-aware max-min fairness with
// space sharing on a GPU cluster (the Gavel policy from §4.1 of the POP
// paper), comparing the exact LP, POP-4, and the Gandiva-style heuristic —
// Figure 2 at example scale.
package main

import (
	"fmt"
	"time"

	"pop/internal/cluster"
	"pop/internal/core"
	"pop/internal/lp"
)

func main() {
	jobs := cluster.GenerateJobs(48, 11, 0)
	c := cluster.NewCluster(12, 12, 12)
	fmt.Printf("%d jobs on a %g-GPU cluster (K80/P100/V100)\n\n", len(jobs), c.TotalGPUs())

	report := func(label string, d time.Duration, a *cluster.Allocation) {
		min, mean := cluster.MinMean(cluster.NormalizedRatios(jobs, c, a))
		fmt.Printf("%-12s min %.4f  mean %.4f  (%6d LP vars) in %v\n",
			label, min, mean, a.LPVariables, d.Round(time.Millisecond))
	}

	start := time.Now()
	exact, err := cluster.MaxMinFairnessSpaceSharing(jobs, c, lp.Options{})
	must(err)
	report("Exact sol.", time.Since(start), exact)

	start = time.Now()
	popAlloc, err := cluster.SolvePOP(jobs, c, cluster.MaxMinFairnessSpaceSharing,
		core.Options{K: 4, Seed: 3, Parallel: true}, lp.Options{})
	must(err)
	must(cluster.VerifyFeasible(jobs, c, popAlloc, 1e-6))
	report("POP-4", time.Since(start), popAlloc)

	start = time.Now()
	gandiva := cluster.Gandiva(jobs, c, 5)
	report("Gandiva", time.Since(start), gandiva)

	fmt.Println("\nPOP partitions jobs into 4 random groups, each scheduled on a")
	fmt.Println("quarter of the cluster with the unchanged LP. Pair variables only")
	fmt.Println("form within a group, which is where the large speedup comes from.")
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
