package experiments

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"pop/internal/cluster"
	"pop/internal/core"
	"pop/internal/gavelsim"
	"pop/internal/lp"
	"pop/internal/online"
	"pop/internal/price"
)

// Fig2 regenerates Figure 2: the max-min fairness policy with space sharing
// on a large cluster — allocation quality (mean normalized throughput,
// relative to exact) and runtime for the exact LP, POP-2/4/8, and the
// Gandiva heuristic. Paper scale: 2048 jobs on 1536 GPUs; see Notes for the
// scaled-down sizing.
func Fig2(scale Scale) (*Result, error) {
	nJobs := pick(scale, 36, 72, 144)
	perType := pick(scale, 9.0, 18.0, 36.0)
	jobs := cluster.GenerateJobs(nJobs, 42, 0)
	c := cluster.NewCluster(perType, perType, perType)

	res := &Result{
		Name:   "fig2",
		Title:  "Max-min fairness with space sharing (paper Fig. 2)",
		Header: []string{"method", "runtime", "min norm thr", "mean norm thr", "quality vs exact", "LP vars"},
		Notes: []string{
			fmt.Sprintf("scaled to %d jobs / %g GPUs (paper: 2048 jobs / 1536 GPUs)", nJobs, 3*perType),
		},
	}

	var exactMean float64
	addRow := func(label string, d time.Duration, a *cluster.Allocation) {
		min, mean := cluster.MinMean(cluster.NormalizedRatios(jobs, c, a))
		if label == "Exact sol." {
			exactMean = mean
		}
		rel := 0.0
		if exactMean > 0 {
			rel = mean / exactMean
		}
		res.Rows = append(res.Rows, []string{
			label, fdur(d), fs(min, 4), fs(mean, 4), fs(rel, 3), fmt.Sprintf("%d", a.LPVariables),
		})
	}

	var exact *cluster.Allocation
	d, err := timed(func() error {
		var e error
		exact, e = cluster.MaxMinFairnessSpaceSharing(jobs, c, lp.Options{})
		return e
	})
	if err != nil {
		return nil, err
	}
	addRow("Exact sol.", d, exact)

	for _, k := range []int{2, 4, 8} {
		var a *cluster.Allocation
		d, err := timed(func() error {
			var e error
			a, e = cluster.SolvePOP(jobs, c, cluster.MaxMinFairnessSpaceSharing,
				core.Options{K: k, Seed: 17, Parallel: true}, lp.Options{})
			return e
		})
		if err != nil {
			return nil, err
		}
		addRow(fmt.Sprintf("POP-%d", k), d, a)
	}

	var g *cluster.Allocation
	d, err = timed(func() error {
		g = cluster.Gandiva(jobs, c, 5)
		return nil
	})
	if err != nil {
		return nil, err
	}
	addRow("Gandiva", d, g)
	return res, nil
}

// Fig6 regenerates Figure 6: end-to-end average JCT against policy
// computation time for the max-min fairness policy with space sharing, via
// the discrete-event simulator (paper: Gavel's simulator on a 96-GPU
// cluster).
func Fig6(scale Scale) (*Result, error) {
	perType := pick(scale, 4.0, 8.0, 32.0)
	nJobs := pick(scale, 14, 30, 120)
	cfg := gavelsim.Config{
		Cluster:            cluster.NewCluster(perType, perType, perType),
		NumJobs:            nJobs,
		ArrivalRatePerHour: pick(scale, 5.0, 8.0, 12.0),
		RoundSeconds:       360,
		Seed:               11,
	}
	res := &Result{
		Name:   "fig6",
		Title:  "Average JCT vs policy runtime, max-min fairness + space sharing (paper Fig. 6)",
		Header: []string{"method", "mean policy time", "avg JCT (h)", "completed"},
		Notes: []string{
			fmt.Sprintf("scaled to %d jobs on %g GPUs (paper: 96 GPUs)", nJobs, 3*perType),
		},
	}

	run := func(label string, policy gavelsim.Policy) error {
		r, err := gavelsim.Run(cfg, policy)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		res.Rows = append(res.Rows, []string{
			label, fdur(r.MeanPolicyTime()), fs(r.AvgJCTHours, 2), fmt.Sprintf("%d/%d", r.Completed, nJobs),
		})
		return nil
	}

	if err := run("Exact sol.", func(js []cluster.Job, c cluster.Cluster) (*cluster.Allocation, error) {
		return cluster.MaxMinFairnessSpaceSharing(js, c, lp.Options{})
	}); err != nil {
		return nil, err
	}
	for _, k := range []int{2, 4, 8} {
		k := k
		if err := run(fmt.Sprintf("POP-%d", k), func(js []cluster.Job, c cluster.Cluster) (*cluster.Allocation, error) {
			return cluster.SolvePOP(js, c, cluster.MaxMinFairnessSpaceSharing, core.Options{K: k, Seed: 23, Parallel: true}, lp.Options{})
		}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Fig7 regenerates Figure 7: the proportional fairness policy — runtime
// against the sum-of-log-utilities objective for the exact price-discovery
// solve and POP-2/4/8 (paper: 10⁶ jobs on the custom solver).
func Fig7(scale Scale) (*Result, error) {
	nJobs := pick(scale, 200, 1000, 5000)
	perType := float64(nJobs) / 4
	jobs := cluster.GenerateJobs(nJobs, 31, 0.1)
	c := cluster.NewCluster(perType, perType, perType)
	opts := price.Options{MaxIters: pick(scale, 1200, 1500, 2000), Parallel: true}

	res := &Result{
		Name:   "fig7",
		Title:  "Proportional fairness: runtime vs Σ log utility (paper Fig. 7)",
		Header: []string{"method", "runtime", "sum log utility", "gap vs exact"},
		Notes: []string{
			fmt.Sprintf("scaled to %d jobs (paper: 10⁶ jobs); price-discovery solver substitutes the paper's PyTorch solver", nJobs),
		},
	}

	// Every (sub-)solve is counted, and one that hits MaxIters before the
	// market clears is reported in the notes rather than hidden.
	var solves, unconverged atomic.Int64
	policy := func(js []cluster.Job, sc cluster.Cluster, _ lp.Options) (*cluster.Allocation, error) {
		a, sol, err := price.SolvePropFair(js, sc, opts)
		if err != nil {
			return nil, err
		}
		solves.Add(1)
		if !sol.Converged {
			unconverged.Add(1)
		}
		return a, nil
	}
	var exactObj float64
	var capped []string
	for _, k := range []int{1, 2, 4, 8} {
		label := fmt.Sprintf("POP-%d", k)
		if k == 1 {
			label = "Exact sol."
		}
		solves.Store(0)
		unconverged.Store(0)
		var a *cluster.Allocation
		d, err := timed(func() error {
			var e error
			if k == 1 {
				a, e = policy(jobs, c, lp.Options{})
			} else {
				a, e = cluster.SolvePOP(jobs, c, policy, core.Options{K: k, Seed: 3, Parallel: true}, lp.Options{})
			}
			return e
		})
		if err != nil {
			return nil, err
		}
		obj := cluster.LogUtility(jobs, a)
		if k == 1 {
			exactObj = obj
		}
		res.Rows = append(res.Rows, []string{label, fdur(d), fs(obj, 2), fs(exactObj-obj, 4)})
		capped = append(capped, fmt.Sprintf("%s %d of %d", label, unconverged.Load(), solves.Load()))
	}
	res.Notes = append(res.Notes, "solves that hit the iteration cap before clearing to 1e-5 (Converged=false): "+strings.Join(capped, ", "))
	return res, nil
}

// Fig8 regenerates Figure 8: the minimize-makespan policy — policy runtime
// against the end-to-end makespan over a static batch of jobs, via the
// simulator with all jobs submitted at t=0.
func Fig8(scale Scale) (*Result, error) {
	perType := pick(scale, 6.0, 12.0, 24.0)
	nJobs := pick(scale, 16, 40, 96)
	cfg := gavelsim.Config{
		Cluster:      cluster.NewCluster(perType, perType, perType),
		NumJobs:      nJobs,
		AllAtOnce:    true,
		RoundSeconds: 360,
		Seed:         13,
	}
	res := &Result{
		Name:   "fig8",
		Title:  "Minimize makespan: policy runtime vs makespan (paper Fig. 8)",
		Header: []string{"method", "mean policy time", "makespan (h)", "completed"},
		Notes: []string{
			fmt.Sprintf("scaled to %d jobs on %g GPUs", nJobs, 3*perType),
		},
	}

	run := func(label string, policy gavelsim.Policy) error {
		r, err := gavelsim.Run(cfg, policy)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		res.Rows = append(res.Rows, []string{
			label, fdur(r.MeanPolicyTime()), fs(r.MakespanHours, 2), fmt.Sprintf("%d/%d", r.Completed, nJobs),
		})
		return nil
	}

	if err := run("Exact sol.", func(js []cluster.Job, c cluster.Cluster) (*cluster.Allocation, error) {
		return cluster.MinMakespan(js, c, lp.Options{})
	}); err != nil {
		return nil, err
	}
	for _, k := range []int{2, 4, 8} {
		k := k
		if err := run(fmt.Sprintf("POP-%d", k), func(js []cluster.Job, c cluster.Cluster) (*cluster.Allocation, error) {
			return cluster.SolvePOP(js, c, cluster.MinMakespan, core.Options{K: k, Seed: 29, Parallel: true}, lp.Options{})
		}); err != nil {
			return nil, err
		}
	}
	// The online engine: same POP decomposition, but sub-problems persist
	// across rounds — only dirtied ones re-solve, warm-started.
	eng, err := online.NewClusterEngine(cfg.Cluster, online.MinMakespan, online.Options{K: 4, Parallel: true})
	if err != nil {
		return nil, err
	}
	if err := run("POP-4 online", eng.Step); err != nil {
		return nil, err
	}
	return res, nil
}
