package lp

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"pop/internal/obs"
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
// must surface as Infeasible through the dual path too, and by a wide
// margin, so the dual phase's own certified ray carries the verdict
// (WarmStarted) rather than a cold phase 1 re-deriving it.
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
		if !dual.WarmStarted || dual.Iterations != dual.DualPivots {
			t.Fatalf("trial %d: verdict not certified by the dual phase (warm %v, %d pivots, %d dual)",
				trial, dual.WarmStarted, dual.Iterations, dual.DualPivots)
		}
	}
}

// TestDualInfeasibleEpsilonLadder raises x0's lower bound ε past the largest
// value the rows allow and re-solves warm-dual from the optimal basis. x0
// enters every row with coefficient 1, so a miss of ε in its bound is a miss
// of ε in the row residual a cold phase 1 measures. A miss of 1e-4 or more
// is far outside the certificate's margin and must be certified by the dual
// phase; at every ε the verdict must equal the cold solve's, and an Optimal
// must pass CheckFeasible.
func TestDualInfeasibleEpsilonLadder(t *testing.T) {
	p := NewProblem(Maximize)
	for j := 0; j < 3; j++ {
		p.AddVariable(1, 0, 10, "")
	}
	p.AddConstraint([]int{0, 1}, []float64{1, 1}, LE, 4, "")
	p.AddConstraint([]int{1, 2}, []float64{1, 1}, LE, 5, "")
	p.AddConstraint([]int{0, 2}, []float64{1, 2}, LE, 6, "")
	sol, err := p.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("base solve: %v %v", sol.Status, err)
	}
	// max x0 is 4 (row 0 with x1 = 0).
	const x0max = 4
	for e := 1; e <= 9; e++ {
		eps := math.Pow(10, -float64(e))
		q := cloneProblem(p)
		q.lb[0] = x0max + eps
		cold, err := cloneProblem(q).Solve()
		if err != nil {
			t.Fatal(err)
		}
		dual, err := q.SolveWithOptions(Options{WarmBasis: sol.Basis, Dual: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("ε=%g: cold %v, dual %v (warm %v, %d dual pivots)", eps, cold.Status, dual.Status, dual.WarmStarted, dual.DualPivots)
		if dual.Status != cold.Status {
			t.Errorf("ε=%g: dual status %v != cold %v", eps, dual.Status, cold.Status)
		}
		if eps >= 1e-4 && (dual.Status != Infeasible || !dual.WarmStarted) {
			t.Errorf("ε=%g: got %v (warm %v), want a certified Infeasible", eps, dual.Status, dual.WarmStarted)
		}
		if dual.Status == Optimal {
			if err := q.CheckFeasible(dual.X, 1e-6); err != nil {
				t.Errorf("ε=%g: Optimal point fails the problem: %v", eps, err)
			}
		}
	}
}

// TestDualCertificateRespectsRowTolerance is a stall the certificate must
// refuse: x0 enters its one row with coefficient 0.1, so raising x0's lower
// bound 5e-7 past the row's reach violates the basic x0 by five times
// TolFeas — enough for the dual phase to pick the row and find no column to
// absorb it — while the row residual a cold phase 1 measures is 5e-8, inside
// TolFeas, and cold answers Optimal. The same stall 1e-3 past the reach is
// certified. A certified verdict books pop_lp_infeasible_certified_total
// and tags the lp.dual span "infeasible"; a refused one books nothing new
// and keeps the signals of any abandoned dual start — an "uncertified"
// span, the lp.dual-reject instant and, when the solve ends up cold (2e-6,
// past the primal warm install's reach too), pop_lp_cold_fallbacks_total.
func TestDualCertificateRespectsRowTolerance(t *testing.T) {
	p := NewProblem(Maximize)
	p.AddVariable(1, 0, 10, "x0")
	p.AddVariable(0, 0, 10, "x1")
	p.AddConstraint([]int{0, 1}, []float64{0.1, 1}, LE, 0.4, "")
	sol, err := p.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("base solve: %v %v", sol.Status, err)
	}
	for _, c := range []struct {
		eps                       float64
		want                      Status
		verdict                   string
		certified, rejected, cold int64
	}{
		{1e-3, Infeasible, "infeasible", 1, 0, 0},
		{5e-7, Optimal, "uncertified", 0, 1, 0},
		{2e-6, Infeasible, "uncertified", 0, 1, 1},
	} {
		q := cloneProblem(p)
		q.lb[0] = 4 + c.eps
		cold, err := cloneProblem(q).Solve()
		if err != nil {
			t.Fatal(err)
		}
		o := &obs.Observer{Metrics: obs.NewRegistry(), Trace: obs.NewTrace()}
		dual, err := q.SolveWithOptions(Options{WarmBasis: sol.Basis, Dual: true, Obs: o})
		if err != nil {
			t.Fatal(err)
		}
		if cold.Status != c.want || dual.Status != c.want {
			t.Errorf("ε=%g: cold %v, dual %v (warm %v), want %v", c.eps, cold.Status, dual.Status, dual.WarmStarted, c.want)
		}
		if n := o.Counter("pop_lp_infeasible_certified_total", "").Value(); n != c.certified {
			t.Errorf("ε=%g: pop_lp_infeasible_certified_total %d, want %d", c.eps, n, c.certified)
		}
		if n := o.Counter("pop_lp_cold_fallbacks_total", "").Value(); n != c.cold {
			t.Errorf("ε=%g: pop_lp_cold_fallbacks_total %d, want %d", c.eps, n, c.cold)
		}
		verdict, rejects := "", int64(0)
		for _, e := range o.Trace.Events() {
			switch e.Name {
			case "lp.dual":
				verdict, _ = e.Args["verdict"].(string)
			case "lp.dual-reject":
				rejects++
			}
		}
		if verdict != c.verdict || rejects != c.rejected {
			t.Errorf("ε=%g: lp.dual verdict %q and %d dual-reject instants, want %q and %d", c.eps, verdict, rejects, c.verdict, c.rejected)
		}
	}
}

// TestDualReachesCoverFixtureInfeasible reaches the committed infeasible lb
// round through the dual path, the way branch and bound would: a root with
// every fixed placement indicator relaxed to [0, 1], then a parent with all
// fixings but one restored, then the last one. Each step is a bound-only
// edit on a Model, so each re-solves warm-dual from the step before. Where
// the parent is feasible, the fixture itself must come back Infeasible, and
// its 3.4e-3 miss is wide enough for the dual phase to certify it.
func TestDualReachesCoverFixtureInfeasible(t *testing.T) {
	f, err := os.Open("testdata/lb_cover_infeasible.mps")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, _, err := ReadMPS(f)
	if err != nil {
		t.Fatal(err)
	}
	var fixed []int
	for v := range p.lb {
		if p.lb[v] == p.ub[v] {
			fixed = append(fixed, v)
		}
	}
	solve := func(m *Model) *Solution {
		sol, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	reached, certified := 0, 0
	for _, v := range fixed {
		m := NewModelFromProblem(p)
		for _, u := range fixed {
			m.SetBounds(u, 0, 1)
		}
		if root := solve(m); root.Status != Optimal {
			t.Fatalf("relaxed root: status %v", root.Status)
		}
		for _, u := range fixed {
			if u != v {
				m.SetBounds(u, p.lb[u], p.ub[u])
			}
		}
		if parent := solve(m); parent.Status != Optimal {
			continue
		}
		m.SetBounds(v, p.lb[v], p.ub[v])
		child := solve(m)
		if child.Status != Infeasible {
			t.Fatalf("fixing X%d last: status %v, want infeasible (row check: %v)", v, child.Status, p.CheckFeasible(child.X, 1e-6))
		}
		reached++
		if child.WarmStarted {
			certified++
		}
	}
	t.Logf("%d feasible parents, %d verdicts certified by the dual phase", reached, certified)
	if reached == 0 || certified == 0 {
		t.Fatalf("%d feasible parents, %d certified verdicts; want at least one of each", reached, certified)
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

// fuzzDualCase decodes a tiny LP — small integer coefficients, bounds and
// right-hand sides, so every miss is a multiple of 1/4 and no verdict sits
// on a tolerance — and one bound tightening of it: raise a lower bound or
// lower an upper one by a multiple of 1/4, never past the other bound.
func fuzzDualCase(data []byte) (p, q *Problem) {
	if len(data) < 2 {
		return nil, nil
	}
	m, n := 1+int(data[0])%6, 1+int(data[1])%6
	data = data[2:]
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	p = NewProblem([]Objective{Maximize, Minimize}[next()%2])
	for j := 0; j < n; j++ {
		ub := float64(next() % 9)
		if ub == 0 {
			ub = Inf
		}
		p.AddVariable(float64(next()%9-4), 0, ub, "")
	}
	for i := 0; i < m; i++ {
		var idx []int
		var val []float64
		for j := 0; j < n; j++ {
			if v := next()%7 - 3; v != 0 {
				idx = append(idx, j)
				val = append(val, float64(v))
			}
		}
		p.AddConstraint(idx, val, []Sense{LE, GE, EQ}[next()%3], float64(next()%16), "")
	}
	q = cloneProblem(p)
	k, d := next()%n, float64(next()%32)/4
	if next()%2 == 0 || math.IsInf(q.ub[k], 1) {
		q.lb[k] = math.Min(q.lb[k]+d, q.ub[k])
	} else {
		q.ub[k] = math.Max(q.ub[k]-d, q.lb[k])
	}
	return p, q
}

// FuzzDualVerdict re-solves a bound-tightened tiny LP warm-dual from its
// optimal basis and holds the verdict to a cold solve's: same status, same
// objective, and an Optimal point that passes CheckFeasible. A tightening
// that makes the LP infeasible is where the dual phase's certified ray
// answers in place of a cold phase 1.
func FuzzDualVerdict(f *testing.F) {
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 64; i++ {
		seed := make([]byte, 2+rng.Intn(80))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, q := fuzzDualCase(data)
		if p == nil {
			return
		}
		sol, err := p.Solve()
		if err != nil || sol.Status != Optimal {
			return
		}
		cold, err := cloneProblem(q).Solve()
		if err != nil {
			t.Fatal(err)
		}
		warm, err := q.SolveWithOptions(Options{WarmBasis: sol.Basis, Dual: true})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("warm-dual %v (warm %v, %d dual pivots), cold %v", warm.Status, warm.WarmStarted, warm.DualPivots, cold.Status)
		}
		for _, s := range []*Solution{warm, cold} {
			if s.Status != Optimal {
				continue
			}
			if err := q.CheckFeasible(s.X, 1e-6); err != nil {
				t.Fatalf("Optimal point fails the problem: %v", err)
			}
		}
		if warm.Status == Optimal && math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
			t.Fatalf("warm-dual objective %g, cold %g", warm.Objective, cold.Objective)
		}
	})
}
