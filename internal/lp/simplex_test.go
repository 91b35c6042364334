package lp

import (
	"math"
	"math/rand"
	"os"
	"testing"
)

func approxEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func requireStatus(t *testing.T, sol *Solution, want Status) {
	t.Helper()
	if sol.Status != want {
		t.Fatalf("status = %v, want %v (obj=%g, iters=%d)", sol.Status, want, sol.Objective, sol.Iterations)
	}
}

func requireObj(t *testing.T, sol *Solution, want float64) {
	t.Helper()
	requireStatus(t, sol, Optimal)
	if !approxEq(sol.Objective, want, 1e-6) {
		t.Fatalf("objective = %.9g, want %.9g", sol.Objective, want)
	}
}

func TestTrivialMaximize(t *testing.T) {
	// max x + 2y  s.t. x + y <= 4, x <= 3, y <= 2, x,y >= 0 → (2,2): 6
	p := NewProblem(Maximize)
	x := p.AddVariable(1, 0, Inf, "x")
	y := p.AddVariable(2, 0, Inf, "y")
	p.AddConstraint([]int{x, y}, []float64{1, 1}, LE, 4, "cap")
	p.AddConstraint([]int{x}, []float64{1}, LE, 3, "xcap")
	p.AddConstraint([]int{y}, []float64{1}, LE, 2, "ycap")
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireObj(t, sol, 6)
	if !approxEq(sol.X[x], 2, 1e-6) || !approxEq(sol.X[y], 2, 1e-6) {
		t.Fatalf("X = %v, want [2 2]", sol.X)
	}
}

func TestTrivialMinimize(t *testing.T) {
	// min 2x + 3y  s.t. x + y >= 5, x >= 1, y >= 0 → (5,0)? check: obj(5,0)=10,
	// obj(1,4)=14 → x=5, y=0, objective 10.
	p := NewProblem(Minimize)
	x := p.AddVariable(2, 1, Inf, "x")
	y := p.AddVariable(3, 0, Inf, "y")
	p.AddConstraint([]int{x, y}, []float64{1, 1}, GE, 5, "demand")
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireObj(t, sol, 10)
}

func TestEqualityConstraint(t *testing.T) {
	// min x + y  s.t. x + 2y = 4, 0 <= x,y <= 3 → y=2,x=0: 2.
	p := NewProblem(Minimize)
	x := p.AddVariable(1, 0, 3, "x")
	y := p.AddVariable(1, 0, 3, "y")
	p.AddConstraint([]int{x, y}, []float64{1, 2}, EQ, 4, "bal")
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireObj(t, sol, 2)
	if !approxEq(sol.X[x]+2*sol.X[y], 4, 1e-7) {
		t.Fatalf("equality violated: %v", sol.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable(1, 0, 10, "x")
	p.AddConstraint([]int{x}, []float64{1}, GE, 5, "")
	p.AddConstraint([]int{x}, []float64{1}, LE, 3, "")
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireStatus(t, sol, Infeasible)
}

func TestInfeasibleEquality(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVariable(1, 0, 1, "x")
	y := p.AddVariable(1, 0, 1, "y")
	p.AddConstraint([]int{x, y}, []float64{1, 1}, EQ, 5, "")
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireStatus(t, sol, Infeasible)
}

// TestInfeasibleByLessThanSumRule is the phase-1 acceptance regression. The
// fixture is a 57-row lb sub-problem (§4.3, 12 shards × 3 servers) with its
// placement indicators fixed at a branch-and-bound incumbent; its "cover"
// row can reach only 0.99953 of the 1 it demands. Phase 1 used to accept
// when the sum of the artificials was ≤ 1e2·TolFeas·(1+m), 5.8e-4 at this m,
// so this LP came back Optimal on a point missing that row — under every
// solver path. Every artificial must now be within TolFeas of zero.
func TestInfeasibleByLessThanSumRule(t *testing.T) {
	f, err := os.Open("testdata/lb_cover_infeasible.mps")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, _, err := ReadMPS(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"dense", Options{dense: true}},
		{"bland", Options{blandOnly: true}},
		{"reinvert=1", Options{reinvertEvery: 1}},
	} {
		sol, err := p.SolveWithOptions(o.opts)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Infeasible {
			t.Errorf("%s: status %v, want infeasible (row check: %v)", o.name, sol.Status, p.CheckFeasible(sol.X, 1e-6))
		}
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable(1, 0, Inf, "x")
	y := p.AddVariable(0, 0, Inf, "y")
	p.AddConstraint([]int{x, y}, []float64{1, -1}, LE, 1, "")
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireStatus(t, sol, Unbounded)
}

func TestBoundedVariablesOnly(t *testing.T) {
	// No constraints at all: vars go to their best bounds.
	p := NewProblem(Maximize)
	x := p.AddVariable(3, -1, 2, "x")
	y := p.AddVariable(-5, -4, 7, "y")
	z := p.AddVariable(0, 1, 2, "z")
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireObj(t, sol, 3*2+(-5)*(-4))
	if sol.X[x] != 2 || sol.X[y] != -4 {
		t.Fatalf("X = %v", sol.X)
	}
	_ = z
}

func TestFreeVariable(t *testing.T) {
	// min x  s.t. x >= -7 via constraint (x itself free) → -7.
	p := NewProblem(Minimize)
	x := p.AddVariable(1, math.Inf(-1), Inf, "x")
	p.AddConstraint([]int{x}, []float64{1}, GE, -7, "")
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireObj(t, sol, -7)
}

func TestFreeVariableEpigraph(t *testing.T) {
	// Max-min via epigraph with a free t: max t s.t. t <= 3, t <= 5.
	p := NewProblem(Maximize)
	tv := p.AddVariable(1, math.Inf(-1), Inf, "t")
	p.AddConstraint([]int{tv}, []float64{1}, LE, 3, "")
	p.AddConstraint([]int{tv}, []float64{1}, LE, 5, "")
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireObj(t, sol, 3)
}

func TestNegativeRHS(t *testing.T) {
	// min x + y s.t. -x - y <= -3 (i.e. x + y >= 3), x,y in [0, 10].
	p := NewProblem(Minimize)
	x := p.AddVariable(1, 0, 10, "x")
	y := p.AddVariable(1, 0, 10, "y")
	p.AddConstraint([]int{x, y}, []float64{-1, -1}, LE, -3, "")
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireObj(t, sol, 3)
}

func TestUpperBoundedStart(t *testing.T) {
	// Variable with only an upper bound starts nonbasic there.
	p := NewProblem(Minimize)
	x := p.AddVariable(-1, math.Inf(-1), 4, "x")
	y := p.AddVariable(1, 0, Inf, "y")
	p.AddConstraint([]int{x, y}, []float64{1, 1}, GE, 2, "")
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireObj(t, sol, -4)
	if !approxEq(sol.X[x], 4, 1e-7) {
		t.Fatalf("x = %g, want 4", sol.X[x])
	}
}

func TestDuplicateIndicesMerged(t *testing.T) {
	// x appears twice in one row: coefficients sum.
	p := NewProblem(Maximize)
	x := p.AddVariable(1, 0, Inf, "x")
	p.AddConstraint([]int{x, x}, []float64{1, 1}, LE, 6, "") // 2x <= 6
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireObj(t, sol, 3)
}

func TestDegenerateProblem(t *testing.T) {
	// Classic degenerate LP (multiple constraints active at the optimum).
	p := NewProblem(Maximize)
	x := p.AddVariable(2, 0, Inf, "x")
	y := p.AddVariable(1, 0, Inf, "y")
	p.AddConstraint([]int{x, y}, []float64{1, 1}, LE, 4, "")
	p.AddConstraint([]int{x, y}, []float64{1, 0}, LE, 4, "")
	p.AddConstraint([]int{x, y}, []float64{0, 1}, LE, 4, "")
	p.AddConstraint([]int{x, y}, []float64{1, 2}, LE, 8, "")
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireObj(t, sol, 8)
}

func TestBelgianChocolate(t *testing.T) {
	// A classic textbook LP: max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6.
	// Optimal (3, 1.5) → 21.
	p := NewProblem(Maximize)
	x := p.AddVariable(5, 0, Inf, "x")
	y := p.AddVariable(4, 0, Inf, "y")
	p.AddConstraint([]int{x, y}, []float64{6, 4}, LE, 24, "")
	p.AddConstraint([]int{x, y}, []float64{1, 2}, LE, 6, "")
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireObj(t, sol, 21)
	if !approxEq(sol.X[x], 3, 1e-6) || !approxEq(sol.X[y], 1.5, 1e-6) {
		t.Fatalf("X = %v, want [3 1.5]", sol.X)
	}
}

func TestDualValues(t *testing.T) {
	// For max 5x+4y above, duals are (0.75, 0.5): strong duality holds.
	p := NewProblem(Maximize)
	x := p.AddVariable(5, 0, Inf, "x")
	y := p.AddVariable(4, 0, Inf, "y")
	p.AddConstraint([]int{x, y}, []float64{6, 4}, LE, 24, "")
	p.AddConstraint([]int{x, y}, []float64{1, 2}, LE, 6, "")
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireStatus(t, sol, Optimal)
	if !approxEq(sol.Dual[0], 0.75, 1e-6) || !approxEq(sol.Dual[1], 0.5, 1e-6) {
		t.Fatalf("duals = %v, want [0.75 0.5]", sol.Dual)
	}
	if !approxEq(24*sol.Dual[0]+6*sol.Dual[1], sol.Objective, 1e-6) {
		t.Fatalf("strong duality violated: %g vs %g", 24*sol.Dual[0]+6*sol.Dual[1], sol.Objective)
	}
}

func TestBlandOnlyAgreesWithDantzig(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		p1 := randomFeasibleLP(rng, 6, 10)
		p2 := cloneProblem(p1)
		s1, err := p1.SolveWithOptions(Options{})
		if err != nil {
			t.Fatal(err)
		}
		s2, err := p2.SolveWithOptions(Options{blandOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if s1.Status != s2.Status {
			t.Fatalf("trial %d: status %v vs %v", trial, s1.Status, s2.Status)
		}
		if s1.Status == Optimal && !approxEq(s1.Objective, s2.Objective, 1e-5) {
			t.Fatalf("trial %d: obj %g vs %g", trial, s1.Objective, s2.Objective)
		}
	}
}

func TestTransportationProblem(t *testing.T) {
	// 2 suppliers (cap 20, 30), 3 customers (dem 10, 25, 15), unit costs.
	costs := [2][3]float64{{2, 4, 5}, {3, 1, 7}}
	supply := []float64{20, 30}
	demand := []float64{10, 25, 15}
	p := NewProblem(Minimize)
	var vars [2][3]int
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			vars[i][j] = p.AddVariable(costs[i][j], 0, Inf, "")
		}
	}
	for i := 0; i < 2; i++ {
		idx := []int{vars[i][0], vars[i][1], vars[i][2]}
		p.AddConstraint(idx, []float64{1, 1, 1}, LE, supply[i], "supply")
	}
	for j := 0; j < 3; j++ {
		idx := []int{vars[0][j], vars[1][j]}
		p.AddConstraint(idx, []float64{1, 1}, EQ, demand[j], "demand")
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Optimal plan: s1→{c1:5, c3:15}, s2→{c1:5, c2:25}:
	// 5·2 + 15·5 + 5·3 + 25·1 = 125.
	requireStatus(t, sol, Optimal)
	total := 0.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			v := sol.X[vars[i][j]]
			if v < -1e-7 {
				t.Fatalf("negative shipment %g", v)
			}
			total += costs[i][j] * v
		}
	}
	if !approxEq(total, sol.Objective, 1e-6) {
		t.Fatalf("objective mismatch: %g vs %g", total, sol.Objective)
	}
	if !approxEq(sol.Objective, 125, 1e-6) {
		t.Fatalf("objective = %g, want 125", sol.Objective)
	}
	for j, d := range demand {
		got := sol.X[vars[0][j]] + sol.X[vars[1][j]]
		if !approxEq(got, d, 1e-6) {
			t.Fatalf("demand %d unmet: %g vs %g", j, got, d)
		}
	}
}

func TestMaxIterationsRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomFeasibleLP(rng, 20, 40)
	sol, err := p.SolveWithOptions(Options{MaxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterLimit && sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
}

func TestReinversionMidSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		p1 := randomFeasibleLP(rng, 12, 24)
		p2 := cloneProblem(p1)
		s1, _ := p1.SolveWithOptions(Options{})
		s2, _ := p2.SolveWithOptions(Options{reinvertEvery: 3})
		if s1.Status != s2.Status {
			t.Fatalf("trial %d: status %v vs %v", trial, s1.Status, s2.Status)
		}
		if s1.Status == Optimal && !approxEq(s1.Objective, s2.Objective, 1e-5) {
			t.Fatalf("trial %d: obj %.10g vs %.10g", trial, s1.Objective, s2.Objective)
		}
	}
}

func TestEmptyModelErrors(t *testing.T) {
	p := NewProblem(Minimize)
	if _, err := p.Solve(); err == nil {
		t.Fatal("expected error for empty model")
	}
}

func TestFixedVariable(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable(1, 2, 2, "x") // fixed at 2
	y := p.AddVariable(1, 0, Inf, "y")
	p.AddConstraint([]int{x, y}, []float64{1, 1}, LE, 5, "")
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireObj(t, sol, 5)
	if !approxEq(sol.X[x], 2, 1e-9) {
		t.Fatalf("fixed variable moved: %g", sol.X[x])
	}
}

func TestRedundantRows(t *testing.T) {
	// Duplicate equality rows give a singular-looking basis; the solver must
	// cope (redundant artificial stays basic at zero).
	p := NewProblem(Maximize)
	x := p.AddVariable(1, 0, 10, "x")
	y := p.AddVariable(1, 0, 10, "y")
	p.AddConstraint([]int{x, y}, []float64{1, 1}, EQ, 6, "")
	p.AddConstraint([]int{x, y}, []float64{1, 1}, EQ, 6, "dup")
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireObj(t, sol, 6)
}

// randomFeasibleLP builds a random LP that is feasible by construction:
// maximize a random objective over Ax <= b with b = A·x0 for a random
// interior x0 >= 0, plus box bounds.
func randomFeasibleLP(rng *rand.Rand, m, n int) *Problem {
	p := NewProblem(Maximize)
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		x0[j] = rng.Float64() * 2
		p.AddVariable(rng.NormFloat64(), 0, 5, "")
	}
	for i := 0; i < m; i++ {
		var idx []int
		var val []float64
		rhs := 0.0
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.4 {
				c := rng.Float64() * 3
				idx = append(idx, j)
				val = append(val, c)
				rhs += c * x0[j]
			}
		}
		if len(idx) == 0 {
			continue
		}
		p.AddConstraint(idx, val, LE, rhs+0.1, "")
	}
	return p
}

func cloneProblem(p *Problem) *Problem {
	q := NewProblem(p.objective)
	for j := range p.obj {
		q.AddVariable(p.obj[j], p.lb[j], p.ub[j], p.varNames[j])
	}
	for i, r := range p.rows {
		q.AddConstraint(r.idx, r.val, r.sense, r.rhs, p.rowNames[i])
	}
	return q
}
