// Package propfair solves the proportional-fairness allocation problem from
// §4.1 of the POP paper:
//
//	maximize   Σ_j w_j · log(Σ_i T_ji · A_ji)
//	subject to Σ_i A_ji ≤ 1            for every job j
//	           Σ_j z_j · A_ji ≤ cap_i  for every resource type i
//	           A ≥ 0
//
// The paper solves this with a custom price-discovery solver built on
// PyTorch (Agrawal et al.); this package substitutes two from-scratch
// solvers in the same spirit:
//
//   - SolvePriceDiscovery: dual (price) subgradient ascent. Given prices on
//     the capacity constraints, each job's best response has a closed form
//     (buy time on the resource with the best throughput-per-dollar, an
//     Eisenberg-Gale-style demand); prices rise on over-demanded resources.
//     Ergodic averaging of the primal iterates plus a final feasibility
//     projection yields the allocation.
//
//   - SolveFrankWolfe: conditional gradient over the feasible polytope,
//     reusing the package lp simplex for the linear subproblems. Provably
//     convergent (O(1/t)); the reference in this package's tests. The
//     Figure-7 experiments and cluster.SolvePOPPropFairness use
//     SolvePriceDiscovery, the more accurate of the two at their sizes
//     (POP's own gap there is smaller than Frank–Wolfe's at its defaults).
package propfair

import (
	"fmt"
	"math"

	"pop/internal/lp"
)

// Problem is a proportional-fairness instance over n jobs and r resource
// types.
type Problem struct {
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

func (p *Problem) dims() (n, r int) { return len(p.T), len(p.Cap) }

func (p *Problem) weight(j int) float64 {
	if p.W == nil {
		return 1
	}
	return p.W[j]
}

func (p *Problem) scale(j int) float64 {
	if p.Z == nil {
		return 1
	}
	return p.Z[j]
}

// Validate checks dimensions.
func (p *Problem) Validate() error {
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

// Solution is an allocation with its objective value Σ w_j log(thr_j).
type Solution struct {
	A          [][]float64
	Objective  float64
	Iterations int
}

// Objective evaluates Σ_j w_j log(throughput_j) for an allocation.
func (p *Problem) Objective(A [][]float64) float64 {
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
func (p *Problem) Throughputs(A [][]float64) []float64 {
	out := make([]float64, len(A))
	for j, row := range A {
		for i, a := range row {
			out[j] += p.T[j][i] * a
		}
	}
	return out
}

// VerifyFeasible checks the two constraint families within tol.
func (p *Problem) VerifyFeasible(A [][]float64, tol float64) error {
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
func (p *Problem) feasibleStart() [][]float64 {
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
// objective over the feasible polytope.
func (p *Problem) SolveFrankWolfe(opts FWOptions) (*Solution, error) {
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
	return &Solution{A: A, Objective: p.Objective(A), Iterations: iters}, nil
}

// PDOptions tune SolvePriceDiscovery.
type PDOptions struct {
	// MaxIters bounds price updates; 0 means 400.
	MaxIters int
	// Step is the initial subgradient step size; 0 means 1.
	Step float64
	// Seed is reserved for randomized variants (unused; kept for API
	// stability).
	Seed int64
}

// SolvePriceDiscovery runs dual subgradient ascent with ergodic primal
// averaging and a final feasibility projection.
func (p *Problem) SolvePriceDiscovery(opts PDOptions) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxIters == 0 {
		opts.MaxIters = 400
	}
	if opts.Step == 0 {
		opts.Step = 1
	}
	n, r := p.dims()

	// Initial prices: uniform positive, scaled by aggregate demand pressure.
	price := make([]float64, r)
	totalZ := 0.0
	for j := 0; j < n; j++ {
		totalZ += p.scale(j)
	}
	for i := range price {
		price[i] = totalZ / (p.Cap[i] * float64(r))
	}

	avg := make([][]float64, n)
	for j := range avg {
		avg[j] = make([]float64, r)
	}
	sumW := 0.0
	demand := make([]float64, r)

	cur := make([][]float64, n)
	for j := range cur {
		cur[j] = make([]float64, r)
	}
	for t := 1; t <= opts.MaxIters; t++ {
		for i := range demand {
			demand[i] = 0
		}
		// Exact best response per job under current prices.
		for j := 0; j < n; j++ {
			p.bestResponse(j, price, cur[j])
			zi := p.scale(j)
			for i := 0; i < r; i++ {
				demand[i] += zi * cur[j][i]
			}
		}

		// Tail average: only iterates from the second half contribute, with
		// uniform weight. Early iterates reflect badly mis-priced markets
		// and would otherwise dominate a decreasing-step ergodic average.
		if t > opts.MaxIters/2 {
			sumW += 1
			for j := 0; j < n; j++ {
				for i := 0; i < r; i++ {
					avg[j][i] += cur[j][i]
				}
			}
		}

		// Price update: rise on over-demand, fall (floored) otherwise, with
		// a diminishing step.
		alpha := opts.Step / math.Sqrt(float64(t))
		for i := 0; i < r; i++ {
			price[i] = math.Max(1e-9, price[i]+alpha*(demand[i]-p.Cap[i])/math.Max(1, p.Cap[i]))
		}
	}

	A := make([][]float64, n)
	for j := range A {
		A[j] = make([]float64, r)
		for i := range A[j] {
			A[j][i] = avg[j][i] / sumW
		}
	}
	p.projectFeasible(A)
	return &Solution{A: A, Objective: p.Objective(A), Iterations: opts.MaxIters}, nil
}

// bestResponse solves job j's subproblem exactly for the given prices:
//
//	maximize  w·log(Σ_i t_i·x_i) − Σ_i c_i·x_i,  c_i = z_j·price_i
//	s.t.      Σ_i x_i ≤ 1, x ≥ 0
//
// By the KKT conditions the optimum is supported on at most two resources
// (active resources must tie in t_i/(c_i+μ) for the common multiplier μ), so
// enumerating all singleton and pair supports is exact. The result is
// written into out.
func (p *Problem) bestResponse(j int, price []float64, out []float64) {
	r := len(price)
	w := p.weight(j)
	z := p.scale(j)
	t := p.T[j]

	for i := range out {
		out[i] = 0
	}
	bestVal := 0.0 // x = 0 yields -Inf utility; any positive x beats it, so
	// track value explicitly starting from the first candidate.
	bestVal = math.Inf(-1)
	var bestI, bestI2 = -1, -1
	var bestX, bestX2 float64

	value := func(u, cost float64) float64 {
		if u <= 0 {
			return math.Inf(-1)
		}
		return w*math.Log(u) - cost
	}

	// Singletons: x_i = min(1, w/c_i).
	for i := 0; i < r; i++ {
		if t[i] <= 0 {
			continue
		}
		ci := z * price[i]
		x := 1.0
		if ci > 0 {
			x = math.Min(1, w/ci)
		}
		if v := value(t[i]*x, ci*x); v > bestVal {
			bestVal, bestI, bestI2, bestX, bestX2 = v, i, -1, x, 0
		}
	}
	// Pairs on the time boundary: x_a + x_b = 1. The stationary utility is
	// u* = w(t_a - t_b)/(c_a - c_b); clamp the mixing weight to [0,1].
	for a := 0; a < r; a++ {
		if t[a] <= 0 {
			continue
		}
		for b := a + 1; b < r; b++ {
			if t[b] <= 0 {
				continue
			}
			ca, cb := z*price[a], z*price[b]
			dt, dc := t[a]-t[b], ca-cb
			if dt == 0 || dc == 0 {
				continue // degenerate: singleton candidates cover it
			}
			u := w * dt / dc
			xa := (u - t[b]) / dt
			if xa <= 0 || xa >= 1 {
				continue // boundary cases are the singleton candidates
			}
			xb := 1 - xa
			uu := t[a]*xa + t[b]*xb
			if v := value(uu, ca*xa+cb*xb); v > bestVal {
				bestVal, bestI, bestI2, bestX, bestX2 = v, a, b, xa, xb
			}
		}
	}
	if bestI >= 0 && bestVal > math.Inf(-1) {
		out[bestI] = bestX
		if bestI2 >= 0 {
			out[bestI2] = bestX2
		}
	}
}

// projectFeasible scales rows/columns down so both constraint families hold.
func (p *Problem) projectFeasible(A [][]float64) {
	n, r := p.dims()
	for j := 0; j < n; j++ {
		sum := 0.0
		for i := 0; i < r; i++ {
			sum += A[j][i]
		}
		if sum > 1 {
			for i := 0; i < r; i++ {
				A[j][i] /= sum
			}
		}
	}
	for i := 0; i < r; i++ {
		used := 0.0
		for j := 0; j < n; j++ {
			used += p.scale(j) * A[j][i]
		}
		if used > p.Cap[i] {
			f := p.Cap[i] / used
			for j := 0; j < n; j++ {
				A[j][i] *= f
			}
		}
	}
}
