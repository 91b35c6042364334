package price

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pop/internal/cluster"
	"pop/internal/core"
	"pop/internal/lp"
)

// fwProblem is a proportional-fairness instance over n jobs and r resource
// types, the input of the Frank–Wolfe oracle below:
//
//	maximize   Σ_j w_j · log(Σ_i T_ji · A_ji)
//	subject to Σ_i A_ji ≤ 1            for every job j
//	           Σ_j z_j · A_ji ≤ cap_i  for every resource type i
//	           A ≥ 0
type fwProblem struct {
	// T[j][i] is the throughput of job j on resource type i.
	T [][]float64
	// W[j] is the fair-share weight of job j (1 if nil).
	W []float64
	// Z[j] is the number of resource units job j occupies when scheduled
	// (z_j in the paper; 1 if nil).
	Z []float64
	// Cap[i] is the number of units of resource type i.
	Cap []float64
}

func (p *fwProblem) dims() (n, r int) { return len(p.T), len(p.Cap) }

func (p *fwProblem) weight(j int) float64 {
	if p.W == nil {
		return 1
	}
	return p.W[j]
}

func (p *fwProblem) scale(j int) float64 {
	if p.Z == nil {
		return 1
	}
	return p.Z[j]
}

// Validate checks dimensions.
func (p *fwProblem) Validate() error {
	n, r := p.dims()
	if n == 0 || r == 0 {
		return fmt.Errorf("propfair: empty problem")
	}
	for j, row := range p.T {
		if len(row) != r {
			return fmt.Errorf("propfair: T[%d] has %d types, want %d", j, len(row), r)
		}
	}
	if p.W != nil && len(p.W) != n {
		return fmt.Errorf("propfair: len(W)=%d, want %d", len(p.W), n)
	}
	if p.Z != nil && len(p.Z) != n {
		return fmt.Errorf("propfair: len(Z)=%d, want %d", len(p.Z), n)
	}
	return nil
}

// fwSolution is an allocation with its objective value Σ w_j log(thr_j).
type fwSolution struct {
	A          [][]float64
	Objective  float64
	Iterations int
}

// Objective evaluates Σ_j w_j log(throughput_j) for an allocation.
func (p *fwProblem) Objective(A [][]float64) float64 {
	obj := 0.0
	for j, row := range A {
		thr := 0.0
		for i, a := range row {
			thr += p.T[j][i] * a
		}
		if thr <= 0 {
			return math.Inf(-1)
		}
		obj += p.weight(j) * math.Log(thr)
	}
	return obj
}

// Throughputs returns the per-job effective throughput under A.
func (p *fwProblem) Throughputs(A [][]float64) []float64 {
	out := make([]float64, len(A))
	for j, row := range A {
		for i, a := range row {
			out[j] += p.T[j][i] * a
		}
	}
	return out
}

// VerifyFeasible checks the two constraint families within tol.
func (p *fwProblem) VerifyFeasible(A [][]float64, tol float64) error {
	n, r := p.dims()
	for j := 0; j < n; j++ {
		sum := 0.0
		for i := 0; i < r; i++ {
			if A[j][i] < -tol {
				return fmt.Errorf("propfair: A[%d][%d] = %g < 0", j, i, A[j][i])
			}
			sum += A[j][i]
		}
		if sum > 1+tol {
			return fmt.Errorf("propfair: job %d time share %g > 1", j, sum)
		}
	}
	for i := 0; i < r; i++ {
		used := 0.0
		for j := 0; j < n; j++ {
			used += p.scale(j) * A[j][i]
		}
		if used > p.Cap[i]+tol*(1+p.Cap[i]) {
			return fmt.Errorf("propfair: resource %d used %g > cap %g", i, used, p.Cap[i])
		}
	}
	return nil
}

// feasibleStart builds a strictly positive interior point: each job gets a
// share of every type proportional to capacity, scaled to respect both
// constraint families.
func (p *fwProblem) feasibleStart() [][]float64 {
	n, r := p.dims()
	totalZ := 0.0
	for j := 0; j < n; j++ {
		totalZ += p.scale(j)
	}
	A := make([][]float64, n)
	for j := 0; j < n; j++ {
		A[j] = make([]float64, r)
		rowSum := 0.0
		for i := 0; i < r; i++ {
			A[j][i] = p.Cap[i] / totalZ * 0.999
			rowSum += A[j][i]
		}
		if rowSum > 1 {
			for i := 0; i < r; i++ {
				A[j][i] /= rowSum * 1.001
			}
		}
	}
	return A
}

// FWOptions tune SolveFrankWolfe.
type FWOptions struct {
	// MaxIters bounds conditional-gradient steps; 0 means 120.
	MaxIters int
	// Tol stops when the Frank-Wolfe gap (an upper bound on suboptimality)
	// falls below Tol·(1+|obj|); 0 means 1e-4.
	Tol float64
	// LP propagates options to the linear subproblem solver.
	LP lp.Options
}

// SolveFrankWolfe runs conditional gradient descent on the (concave)
// objective over the feasible polytope, reusing the package lp simplex for
// the linear subproblems. Provably convergent (O(1/t)), it is the oracle
// SolvePropFair is checked against.
func (p *fwProblem) SolveFrankWolfe(opts FWOptions) (*fwSolution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxIters == 0 {
		opts.MaxIters = 120
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-4
	}
	n, r := p.dims()
	A := p.feasibleStart()

	// The LP feasible region is fixed; build it once and swap objectives.
	lpProb := lp.NewProblem(lp.Maximize)
	varOf := make([][]int, n)
	for j := 0; j < n; j++ {
		varOf[j] = make([]int, r)
		for i := 0; i < r; i++ {
			varOf[j][i] = lpProb.AddVariable(0, 0, 1, "")
		}
	}
	for j := 0; j < n; j++ {
		coef := make([]float64, r)
		for i := range coef {
			coef[i] = 1
		}
		lpProb.AddConstraint(varOf[j], coef, lp.LE, 1, "time")
	}
	for i := 0; i < r; i++ {
		idx := make([]int, n)
		coef := make([]float64, n)
		for j := 0; j < n; j++ {
			idx[j] = varOf[j][i]
			coef[j] = p.scale(j)
		}
		lpProb.AddConstraint(idx, coef, lp.LE, p.Cap[i], "cap")
	}

	thr := p.Throughputs(A)
	grad := func(j, i int) float64 {
		if thr[j] <= 0 {
			return 0 // job with all-zero throughput row: excluded
		}
		return p.weight(j) * p.T[j][i] / thr[j]
	}
	trial := make([][]float64, n)
	for j := range trial {
		trial[j] = make([]float64, r)
	}

	iters := 0
	for t := 0; t < opts.MaxIters; t++ {
		iters++
		for j := 0; j < n; j++ {
			for i := 0; i < r; i++ {
				lpProb.SetObjectiveCoeff(varOf[j][i], grad(j, i))
			}
		}
		sol, err := lpProb.SolveWithOptions(opts.LP)
		if err != nil {
			return nil, err
		}
		if sol.Status != lp.Optimal {
			return nil, fmt.Errorf("propfair: FW subproblem %v", sol.Status)
		}
		// FW gap = ∇f·(S-A) upper-bounds the suboptimality; stop when small.
		gap := 0.0
		for j := 0; j < n; j++ {
			for i := 0; i < r; i++ {
				gap += grad(j, i) * (sol.X[varOf[j][i]] - A[j][i])
			}
		}
		obj := p.Objective(A)
		if gap <= opts.Tol*(1+math.Abs(obj)) {
			break
		}
		// Backtracking step: the log objective explodes at the boundary, so
		// never take gamma = 1, and halve until the objective improves.
		gamma := 2 / float64(t+3)
		accepted := false
		for try := 0; try < 40; try++ {
			for j := 0; j < n; j++ {
				for i := 0; i < r; i++ {
					trial[j][i] = A[j][i] + gamma*(sol.X[varOf[j][i]]-A[j][i])
				}
			}
			if p.Objective(trial) > obj {
				accepted = true
				break
			}
			gamma /= 2
		}
		if !accepted {
			break // no improving step along the FW direction: converged
		}
		for j := 0; j < n; j++ {
			copy(A[j], trial[j])
		}
		thr = p.Throughputs(A)
	}
	return &fwSolution{A: A, Objective: p.Objective(A), Iterations: iters}, nil
}

// randomProblem builds a feasible instance with realistic GPU-like
// throughput ratios.
func randomProblem(n int, seed int64) *fwProblem {
	rng := rand.New(rand.NewSource(seed))
	p := &fwProblem{
		T:   make([][]float64, n),
		Cap: []float64{float64(n) / 3, float64(n) / 3, float64(n) / 3},
	}
	for j := 0; j < n; j++ {
		base := 0.5 + rng.Float64()
		p.T[j] = []float64{base, base * (1.5 + rng.Float64()), base * (3 + 2*rng.Float64())}
	}
	return p
}

// market restates an oracle instance as the jobs and pool SolvePropFair
// takes.
func (p *fwProblem) market() ([]cluster.Job, cluster.Cluster) {
	jobs := make([]cluster.Job, len(p.T))
	for j, t := range p.T {
		jobs[j] = cluster.Job{ID: j, Throughput: t, Weight: p.weight(j), Scale: p.scale(j)}
	}
	return jobs, cluster.Cluster{NumGPUs: p.Cap}
}

// solvePropFair runs SolvePropFair on an oracle instance and checks the
// allocation against both constraint families.
func solvePropFair(t *testing.T, p *fwProblem, opts Options) (*cluster.Allocation, *Solution) {
	t.Helper()
	jobs, c := p.market()
	a, sol, err := SolvePropFair(jobs, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.VerifyFeasible(a.X, 1e-6); err != nil {
		t.Fatal(err)
	}
	return a, sol
}

// solveClosedForm is solvePropFair on a tiny market, which must clear.
func solveClosedForm(t *testing.T, p *fwProblem) *cluster.Allocation {
	t.Helper()
	a, sol := solvePropFair(t, p, Options{})
	if !sol.Converged {
		t.Errorf("market did not clear: %d iterations, residual %g", sol.Iterations, sol.Residual)
	}
	return a
}

func TestPropFairTwoJobsClosedForm(t *testing.T) {
	// Two identical jobs, one resource with capacity 1: symmetric optimum
	// A = [[0.5], [0.5]], objective 2·log(0.5·T) = 0.
	p := &fwProblem{T: [][]float64{{2}, {2}}, Cap: []float64{1}}
	a := solveClosedForm(t, p)
	if got := p.Objective(a.X); math.Abs(got) > 5e-3 {
		t.Fatalf("objective = %g, want 0", got)
	}
	if math.Abs(a.X[0][0]-0.5) > 0.02 || math.Abs(a.X[1][0]-0.5) > 0.02 {
		t.Fatalf("A = %v, want ~[[0.5],[0.5]]", a.X)
	}
}

func TestPropFairAsymmetricWeights(t *testing.T) {
	// One resource, two jobs, weights 2:1 → the Eisenberg–Gale optimum
	// splits capacity 2/3 : 1/3.
	p := &fwProblem{T: [][]float64{{1}, {1}}, W: []float64{2, 1}, Cap: []float64{1}}
	a := solveClosedForm(t, p)
	if math.Abs(a.X[0][0]-2.0/3) > 0.02 || math.Abs(a.X[1][0]-1.0/3) > 0.02 {
		t.Fatalf("A = %v, want [2/3, 1/3]", a.X)
	}
}

func TestPropFairScaledJobs(t *testing.T) {
	// A job occupying three units pays three times the price: with two
	// units, maximizing log x₀ + log x₁ s.t. 3x₀ + x₁ ≤ 2, x ≤ 1 gives
	// x₀ = 1/3 and the single-unit job its whole time budget.
	p := &fwProblem{T: [][]float64{{1}, {1}}, Z: []float64{3, 1}, Cap: []float64{2}}
	a := solveClosedForm(t, p)
	if math.Abs(a.X[0][0]-1.0/3) > 0.02 || math.Abs(a.X[1][0]-1) > 0.02 {
		t.Fatalf("A = %v, want [1/3, 1]", a.X)
	}
}

func TestFrankWolfeFeasible(t *testing.T) {
	p := randomProblem(30, 1)
	sol, err := p.SolveFrankWolfe(FWOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.VerifyFeasible(sol.A, 1e-6); err != nil {
		t.Fatal(err)
	}
	if math.IsInf(sol.Objective, -1) {
		t.Fatal("zero throughput at FW solution")
	}
}

func TestPropFairAgreesWithFrankWolfe(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		p := randomProblem(24, seed)
		fw, err := p.SolveFrankWolfe(FWOptions{MaxIters: 300, Tol: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		a, _ := solvePropFair(t, p, Options{MaxIters: 1500})
		// Both stop at a finite tolerance, so either may lead slightly.
		got := p.Objective(a.X)
		t.Logf("seed %d: price %.6f, FW %.6f", seed, got, fw.Objective)
		if math.Abs(got-fw.Objective) > 0.05 {
			t.Fatalf("seed %d: price %g vs FW %g", seed, got, fw.Objective)
		}
	}
}

func TestPOPPropFairness(t *testing.T) {
	jobs := cluster.GenerateJobs(40, 23, 0.1)
	c := cluster.NewCluster(12, 12, 12)
	opts := Options{MaxIters: 2000}
	exact, _, err := SolvePropFair(jobs, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := cluster.SolvePOP(jobs, c, func(js []cluster.Job, sc cluster.Cluster, _ lp.Options) (*cluster.Allocation, error) {
		a, _, err := SolvePropFair(js, sc, opts)
		return a, err
	}, core.Options{K: 4, Seed: 7, Parallel: true}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.VerifyFeasible(jobs, c, a, 1e-5); err != nil {
		t.Fatal(err)
	}
	// Sum-of-logs gap per job should be small (paper: 7e-5 overall at scale;
	// here modest n so allow a loose bound).
	if cluster.LogUtility(jobs, a) < cluster.LogUtility(jobs, exact)-0.1*float64(len(jobs)) {
		t.Fatalf("POP log utility %g too far below exact %g",
			cluster.LogUtility(jobs, a), cluster.LogUtility(jobs, exact))
	}
}
