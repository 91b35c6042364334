package lp

import (
	"math"
	"math/rand"
	"testing"
)

// perturbRHSOnly jitters right-hand sides and nothing else — the delta
// class the dual simplex exists for.
func perturbRHSOnly(p *Problem, rng *rand.Rand) *Problem {
	q := cloneProblem(p)
	for i := range q.rows {
		if rng.Float64() < 0.6 {
			q.rows[i].rhs *= 0.7 + 0.6*rng.Float64()
		}
	}
	return q
}

// perturbBoundsOnly jitters finite variable bounds and nothing else.
func perturbBoundsOnly(p *Problem, rng *rand.Rand) *Problem {
	q := cloneProblem(p)
	for j := range q.ub {
		if rng.Float64() < 0.4 && !math.IsInf(q.ub[j], 1) {
			q.ub[j] *= 0.6 + 0.8*rng.Float64()
			if q.ub[j] < q.lb[j] {
				q.ub[j] = q.lb[j]
			}
		}
		if rng.Float64() < 0.2 && !math.IsInf(q.lb[j], -1) {
			q.lb[j] -= rng.Float64()
		}
	}
	return q
}

// TestDualResolveMatchesColdOnRHSAndBoundPerturbations is the dual simplex
// contract: re-solving a rhs/bound-perturbed problem from the stale optimal
// basis with Options.Dual must reproduce the cold solve's status and
// objective exactly (to 1e-6), and the dual path must actually engage on a
// healthy fraction of the trials.
func TestDualResolveMatchesColdOnRHSAndBoundPerturbations(t *testing.T) {
	for _, f := range factors {
		t.Run(f.name, func(t *testing.T) {
			dualOpts := f.opts
			dualOpts.Dual = true
			rng := rand.New(rand.NewSource(777))
			dualEngaged, dualPivots := 0, 0
			trials := 40
			if testing.Short() {
				trials = 12
			}
			for trial := 0; trial < trials; trial++ {
				p := randomFeasibleLP(rng, 6+rng.Intn(10), 8+rng.Intn(12))
				sol, err := p.SolveWithOptions(f.opts)
				if err != nil {
					t.Fatal(err)
				}
				if sol.Status != Optimal {
					continue
				}
				basis := sol.Basis
				q := perturbRHSOnly(p, rng)
				if trial%2 == 1 {
					q = perturbBoundsOnly(p, rng)
				}
				cold, err := cloneProblem(q).SolveWithOptions(f.opts)
				if err != nil {
					t.Fatal(err)
				}
				dualOpts.WarmBasis = basis
				dual, err := cloneProblem(q).SolveWithOptions(dualOpts)
				if err != nil {
					t.Fatal(err)
				}
				if dual.Status != cold.Status {
					t.Fatalf("trial %d: dual status %v != cold %v", trial, dual.Status, cold.Status)
				}
				if cold.Status == Optimal {
					if diff := math.Abs(dual.Objective - cold.Objective); diff > 1e-6*(1+math.Abs(cold.Objective)) {
						t.Fatalf("trial %d: dual objective %.12g != cold %.12g", trial, dual.Objective, cold.Objective)
					}
					if err := q.CheckFeasible(dual.X, 1e-6); err != nil {
						t.Fatalf("trial %d: dual solution infeasible: %v", trial, err)
					}
				}
				if dual.WarmStarted && dual.DualPivots >= 0 {
					dualEngaged++
					dualPivots += dual.DualPivots
				}
			}
			if dualEngaged == 0 {
				t.Fatal("dual path never engaged across rhs/bound perturbations")
			}
			t.Logf("dual engaged on %d trials, %d dual pivots total", dualEngaged, dualPivots)
		})
	}
}

// TestDualUnchangedResolveIsFree: re-solving the identical problem through
// the dual path must take zero pivots and keep the answer.
func TestDualUnchangedResolveIsFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := randomFeasibleLP(rng, 10, 14)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	re, err := cloneProblem(p).SolveWithOptions(Options{WarmBasis: sol.Basis, Dual: true})
	if err != nil {
		t.Fatal(err)
	}
	if !re.WarmStarted {
		t.Fatal("identical dual re-solve did not warm start")
	}
	if re.Iterations != 0 {
		t.Fatalf("identical dual re-solve took %d pivots, want 0", re.Iterations)
	}
	if math.Abs(re.Objective-sol.Objective) > 1e-9*(1+math.Abs(sol.Objective)) {
		t.Fatalf("objective drifted: %g vs %g", re.Objective, sol.Objective)
	}
}

// TestDualReportsInfeasibleLikeCold: a rhs change that kills feasibility
// must surface as Infeasible through the dual path too (via its fallback,
// which re-derives the certificate with the primal phase 1).
func TestDualReportsInfeasibleLikeCold(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		p := randomFeasibleLP(rng, 8, 10)
		sol, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			continue
		}
		q := cloneProblem(p)
		// All coefficients and lower bounds are ≥ 0, so a sufficiently
		// negative ≤-rhs is unsatisfiable.
		q.rows[0].rhs = -1e6
		cold, err := cloneProblem(q).Solve()
		if err != nil {
			t.Fatal(err)
		}
		dual, err := q.SolveWithOptions(Options{WarmBasis: sol.Basis, Dual: true})
		if err != nil {
			t.Fatal(err)
		}
		if dual.Status != cold.Status {
			t.Fatalf("trial %d: dual status %v != cold %v", trial, dual.Status, cold.Status)
		}
	}
}

// TestDualRejectsStaleCostBasis: after objective/coefficient drift the dual
// entry must either decline or still land on the cold answer — the outcome
// contract holds regardless of which.
func TestDualRejectsStaleCostBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 15; trial++ {
		p := randomFeasibleLP(rng, 8, 12)
		sol, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			continue
		}
		q := cloneProblem(p)
		for j := range q.obj {
			q.obj[j] += rng.NormFloat64()
		}
		for i := range q.rows {
			for t := range q.rows[i].val {
				if rng.Float64() < 0.3 {
					q.rows[i].val[t] *= 0.5 + rng.Float64()
				}
			}
		}
		cold, err := cloneProblem(q).Solve()
		if err != nil {
			t.Fatal(err)
		}
		dual, err := q.SolveWithOptions(Options{WarmBasis: sol.Basis, Dual: true})
		if err != nil {
			t.Fatal(err)
		}
		if dual.Status != cold.Status {
			t.Fatalf("trial %d: status %v != cold %v", trial, dual.Status, cold.Status)
		}
		if cold.Status == Optimal {
			if diff := math.Abs(dual.Objective - cold.Objective); diff > 1e-6*(1+math.Abs(cold.Objective)) {
				t.Fatalf("trial %d: objective %.12g != cold %.12g", trial, dual.Objective, cold.Objective)
			}
		}
	}
}

// TestDualReducesWorkOnLoadShift mimics the online engines' round shape: a
// capacity (rhs) shift re-solved from the previous basis should need far
// fewer pivots than a cold solve, and the dual phase should do the heavy
// lifting.
func TestDualReducesWorkOnLoadShift(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	var coldIters, dualIters int
	trials := 20
	for trial := 0; trial < trials; trial++ {
		p := randomFeasibleLP(rng, 20, 30)
		sol, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			continue
		}
		q := perturbRHSOnly(p, rng)
		cold, err := cloneProblem(q).Solve()
		if err != nil {
			t.Fatal(err)
		}
		dual, err := q.SolveWithOptions(Options{WarmBasis: sol.Basis, Dual: true})
		if err != nil {
			t.Fatal(err)
		}
		if cold.Status != Optimal || dual.Status != Optimal {
			continue
		}
		coldIters += cold.Iterations
		dualIters += dual.Iterations
	}
	if coldIters == 0 {
		t.Skip("no optimal trials")
	}
	if dualIters >= coldIters {
		t.Fatalf("dual re-solves took %d pivots vs cold %d — no win", dualIters, coldIters)
	}
	t.Logf("pivots: cold %d, dual re-solve %d", coldIters, dualIters)
}
