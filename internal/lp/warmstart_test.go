package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// perturb returns a copy of p with jittered costs, rhs, and a few bounds —
// the kind of drift an online round produces.
func perturb(p *Problem, rng *rand.Rand) *Problem {
	q := cloneProblem(p)
	for j := range q.obj {
		q.obj[j] += rng.NormFloat64() * 0.1
	}
	for i := range q.rows {
		q.rows[i].rhs *= 1 + 0.1*rng.NormFloat64()
	}
	for j := range q.ub {
		if !math.IsInf(q.ub[j], 1) && rng.Float64() < 0.2 {
			q.ub[j] *= 0.8 + 0.4*rng.Float64()
			if q.ub[j] < q.lb[j] {
				q.ub[j] = q.lb[j]
			}
		}
	}
	return q
}

// TestWarmStartMatchesColdAcrossPerturbations is the core warm-start
// contract: across chains of perturbed re-solves, the warm solve must agree
// with a cold solve of the same data — warm starts change speed, never the
// answer.
func TestWarmStartMatchesColdAcrossPerturbations(t *testing.T) {
	for _, f := range factors {
		t.Run(f.name, func(t *testing.T) {
			warmOpts := f.opts
			rng := rand.New(rand.NewSource(4242))
			warmUsed := 0
			for trial := 0; trial < 25; trial++ {
				p := randomFeasibleLP(rng, 5+rng.Intn(10), 8+rng.Intn(14))
				sol, err := p.SolveWithOptions(f.opts)
				if err != nil {
					t.Fatal(err)
				}
				if sol.Status != Optimal {
					continue
				}
				basis := sol.Basis
				cur := p
				for round := 0; round < 4; round++ {
					cur = perturb(cur, rng)
					cold, err := cloneProblem(cur).SolveWithOptions(f.opts)
					if err != nil {
						t.Fatal(err)
					}
					warmOpts.WarmBasis = basis
					warm, err := cloneProblem(cur).SolveWithOptions(warmOpts)
					if err != nil {
						t.Fatal(err)
					}
					if cold.Status != warm.Status {
						t.Fatalf("trial %d round %d: cold %v vs warm %v", trial, round, cold.Status, warm.Status)
					}
					if cold.Status == Optimal {
						if !approxEq(cold.Objective, warm.Objective, 1e-6) {
							t.Fatalf("trial %d round %d: cold obj %.12g vs warm %.12g",
								trial, round, cold.Objective, warm.Objective)
						}
						if err := cur.CheckFeasible(warm.X, 1e-6); err != nil {
							t.Fatalf("trial %d round %d: warm solution infeasible: %v", trial, round, err)
						}
						if warm.WarmStarted {
							warmUsed++
						}
						basis = warm.Basis
					}
				}
			}
			if warmUsed == 0 {
				t.Fatal("warm basis was never actually used; the warm path is dead")
			}
		})
	}
}

// TestWarmStartIdenticalResolve re-solves the unchanged problem from its own
// optimal basis: the warm solve must be accepted and finish in (near) zero
// iterations.
func TestWarmStartIdenticalResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		p := randomFeasibleLP(rng, 6+rng.Intn(8), 10+rng.Intn(10))
		sol, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			continue
		}
		re, err := cloneProblem(p).SolveWithOptions(Options{WarmBasis: sol.Basis})
		if err != nil {
			t.Fatal(err)
		}
		if !re.WarmStarted {
			t.Fatalf("trial %d: identical re-solve rejected the warm basis", trial)
		}
		if re.Status != Optimal || !approxEq(re.Objective, sol.Objective, 1e-9) {
			t.Fatalf("trial %d: re-solve %v obj %.12g, want optimal %.12g", trial, re.Status, re.Objective, sol.Objective)
		}
		if re.Iterations > 2 {
			t.Fatalf("trial %d: identical warm re-solve took %d iterations", trial, re.Iterations)
		}
	}
}

// TestWarmStartRejectsBadSnapshots feeds deliberately broken bases; the
// solver must fall back to a cold start and still reach the optimum.
func TestWarmStartRejectsBadSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := randomFeasibleLP(rng, 8, 12)
	ref, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	n, m := p.NumVariables(), p.NumConstraints()

	mkBasis := func(fill BasisStatus) *Basis {
		b := &Basis{VarStatus: make([]BasisStatus, n), SlackStatus: make([]BasisStatus, m)}
		for j := range b.VarStatus {
			b.VarStatus[j] = fill
		}
		for i := range b.SlackStatus {
			b.SlackStatus[i] = fill
		}
		return b
	}
	cases := map[string]*Basis{
		"wrong-dims":  {VarStatus: make([]BasisStatus, n+3), SlackStatus: make([]BasisStatus, m)},
		"no-basics":   mkBasis(BasisLower), // count repair promotes slacks
		"all-basic":   mkBasis(BasisBasic), // count repair demotes columns
		"all-upper":   mkBasis(BasisUpper), // infinite upper bounds get sanitized
		"half-random": nil,                 // filled below
	}
	hr := mkBasis(BasisLower)
	for j := range hr.VarStatus {
		hr.VarStatus[j] = BasisStatus(rng.Intn(4))
	}
	for i := range hr.SlackStatus {
		hr.SlackStatus[i] = BasisStatus(rng.Intn(4))
	}
	cases["half-random"] = hr

	for name, b := range cases {
		for _, f := range factors {
			opts := f.opts
			opts.WarmBasis = b
			sol, err := cloneProblem(p).SolveWithOptions(opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, f.name, err)
			}
			if sol.Status != Optimal || !approxEq(sol.Objective, ref.Objective, 1e-6) {
				t.Fatalf("%s/%s: status %v obj %.12g, want optimal %.12g",
					name, f.name, sol.Status, sol.Objective, ref.Objective)
			}
		}
	}
}

// TestWarmStartWithScaling crosses the warm path with equilibration.
func TestWarmStartWithScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 8; trial++ {
		p := randomFeasibleLP(rng, 8, 14)
		for _, scale := range []bool{false, true} {
			opts := Options{Scale: scale}
			sol, err := cloneProblem(p).SolveWithOptions(opts)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != Optimal {
				continue
			}
			q := perturb(p, rng)
			cold, err := cloneProblem(q).SolveWithOptions(opts)
			if err != nil {
				t.Fatal(err)
			}
			wopts := opts
			wopts.WarmBasis = sol.Basis
			warm, err := cloneProblem(q).SolveWithOptions(wopts)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Status != warm.Status {
				t.Fatalf("scale=%v: %v vs %v", scale, cold.Status, warm.Status)
			}
			if cold.Status == Optimal && !approxEq(cold.Objective, warm.Objective, 1e-6) {
				t.Fatalf("scale=%v: %.12g vs %.12g", scale, cold.Objective, warm.Objective)
			}
		}
	}
}

// TestWarmStartInfeasibleProblem: a warm basis must not mask infeasibility.
func TestWarmStartInfeasibleProblem(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVariable(1, 0, 10, "x")
	p.AddConstraint([]int{x}, []float64{1}, GE, 5, "")
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("setup solve: %v", sol.Status)
	}
	// Tighten into infeasibility and warm-start from the old basis.
	q := NewProblem(Minimize)
	x = q.AddVariable(1, 0, 10, "x")
	q.AddConstraint([]int{x}, []float64{1}, GE, 50, "")
	re, err := q.SolveWithOptions(Options{WarmBasis: sol.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if re.Status != Infeasible {
		t.Fatalf("got %v, want infeasible", re.Status)
	}
}

// TestWarmStartReducesIterations documents the point of the exercise: over
// a drifting sequence, warm solves should pivot substantially less than
// cold solves in aggregate.
func TestWarmStartReducesIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	var coldIters, warmIters int
	for trial := 0; trial < 10; trial++ {
		p := randomFeasibleLP(rng, 12, 30)
		sol, err := p.Solve()
		if err != nil || sol.Status != Optimal {
			continue
		}
		basis := sol.Basis
		cur := p
		for round := 0; round < 3; round++ {
			cur = perturb(cur, rng)
			cold, err := cloneProblem(cur).Solve()
			if err != nil {
				t.Fatal(err)
			}
			warm, err := cloneProblem(cur).SolveWithOptions(Options{WarmBasis: basis})
			if err != nil {
				t.Fatal(err)
			}
			if cold.Status != Optimal || warm.Status != Optimal {
				continue
			}
			coldIters += cold.Iterations
			warmIters += warm.Iterations
			basis = warm.Basis
		}
	}
	if coldIters == 0 {
		t.Skip("no optimal rounds")
	}
	if float64(warmIters) > 0.8*float64(coldIters) {
		t.Fatalf("warm starts did not pay: %d warm vs %d cold iterations", warmIters, coldIters)
	}
}

func TestBasisCloneAndNumBasic(t *testing.T) {
	b := &Basis{
		VarStatus:   []BasisStatus{BasisBasic, BasisLower, BasisUpper},
		SlackStatus: []BasisStatus{BasisBasic, BasisFree},
	}
	c := b.Clone()
	c.VarStatus[0] = BasisFree
	if b.VarStatus[0] != BasisBasic {
		t.Fatal("Clone shares storage")
	}
	if got := b.NumBasic(); got != 2 {
		t.Fatalf("NumBasic = %d, want 2", got)
	}
	if (*Basis)(nil).Clone() != nil {
		t.Fatal("nil Clone should be nil")
	}
	_ = fmt.Sprintf("%v", b)
}
