package milp

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pop/internal/lp"
)

func approxEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestKnapsack(t *testing.T) {
	// Classic 0/1 knapsack: values {60,100,120}, weights {10,20,30}, cap 50.
	// Optimum: items 2,3 → 220.
	values := []float64{60, 100, 120}
	weights := []float64{10, 20, 30}
	p := NewProblem(lp.Maximize)
	var vars []int
	for i := range values {
		vars = append(vars, p.AddBinary(values[i], ""))
	}
	p.LP.AddConstraint(vars, weights, lp.LE, 50, "cap")
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approxEq(sol.Objective, 220, 1e-6) {
		t.Fatalf("objective = %g, want 220", sol.Objective)
	}
	for _, v := range vars {
		r := math.Round(sol.X[v])
		if math.Abs(sol.X[v]-r) > 1e-6 {
			t.Fatalf("non-integral solution: %v", sol.X)
		}
	}
}

func TestIntegerMinimize(t *testing.T) {
	// min x + y s.t. 2x + y >= 5.5, x,y integer >= 0 → x=3,y=0 (3) or x=2,y=2 (4)
	// → check: 2x+y>=5.5 with x=3: 6>=5.5 ok, obj 3. x=2,y=2: 6>=5.5 obj 4.
	p := NewProblem(lp.Minimize)
	x := p.LP.AddVariable(1, 0, 10, "x")
	y := p.LP.AddVariable(1, 0, 10, "y")
	p.SetInteger(x)
	p.SetInteger(y)
	p.LP.AddConstraint([]int{x, y}, []float64{2, 1}, lp.GE, 5.5, "")
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approxEq(sol.Objective, 3, 1e-6) {
		t.Fatalf("got %v obj=%g, want optimal 3", sol.Status, sol.Objective)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// max 3x + 2y, x binary, y continuous in [0, 1.5], x + y <= 2.
	// x=1, y=1 → 5.
	p := NewProblem(lp.Maximize)
	x := p.AddBinary(3, "x")
	y := p.LP.AddVariable(2, 0, 1.5, "y")
	p.LP.AddConstraint([]int{x, y}, []float64{1, 1}, lp.LE, 2, "")
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approxEq(sol.Objective, 5, 1e-6) {
		t.Fatalf("got %v obj=%g, want optimal 5", sol.Status, sol.Objective)
	}
}

func TestInfeasibleMILP(t *testing.T) {
	p := NewProblem(lp.Maximize)
	x := p.AddBinary(1, "x")
	y := p.AddBinary(1, "y")
	p.LP.AddConstraint([]int{x, y}, []float64{1, 1}, lp.GE, 3, "") // > 2 possible
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestIntegerInfeasibleButLPFeasible(t *testing.T) {
	// 2x = 1 with x in {0, 1}: LP relaxation feasible (x=0.5), MILP not.
	p := NewProblem(lp.Maximize)
	x := p.AddBinary(1, "x")
	p.LP.AddConstraint([]int{x}, []float64{2}, lp.EQ, 1, "")
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestPureLPPassThrough(t *testing.T) {
	// No integer variables: B&B should terminate at the root.
	p := NewProblem(lp.Maximize)
	x := p.LP.AddVariable(1, 0, 4, "x")
	p.LP.AddConstraint([]int{x}, []float64{1}, lp.LE, 3, "")
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approxEq(sol.Objective, 3, 1e-9) {
		t.Fatalf("got %v obj=%g", sol.Status, sol.Objective)
	}
	if sol.Nodes > 2 {
		t.Fatalf("expected root-only solve, used %d nodes", sol.Nodes)
	}
}

func TestAssignmentProblem(t *testing.T) {
	// 3x3 assignment: binary x_ij, each row/col exactly one. Costs chosen so
	// the optimum is the anti-diagonal (3+2+2=7... compute below).
	costs := [3][3]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	// Optimal assignment minimizing: enumerate: perms of {0,1,2}:
	// (0,1,2): 4+0+2=6; (0,2,1): 4+5+2=11; (1,0,2): 1+2+2=5;
	// (1,2,0): 1+5+3=9; (2,0,1): 3+2+2=7; (2,1,0): 3+0+3=6. → min 5.
	p := NewProblem(lp.Minimize)
	var vars [3][3]int
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			vars[i][j] = p.AddBinary(costs[i][j], "")
		}
	}
	for i := 0; i < 3; i++ {
		p.LP.AddConstraint([]int{vars[i][0], vars[i][1], vars[i][2]}, []float64{1, 1, 1}, lp.EQ, 1, "row")
		p.LP.AddConstraint([]int{vars[0][i], vars[1][i], vars[2][i]}, []float64{1, 1, 1}, lp.EQ, 1, "col")
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approxEq(sol.Objective, 5, 1e-6) {
		t.Fatalf("got %v obj=%g, want optimal 5", sol.Status, sol.Objective)
	}
}

// TestAgainstBruteForce cross-checks B&B against exhaustive enumeration on
// random small binary programs.
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		_ = trial
		nv := 3 + rng.Intn(6)
		mc := 1 + rng.Intn(3)
		obj := make([]float64, nv)
		for j := range obj {
			obj[j] = math.Round(rng.NormFloat64()*10) / 2
		}
		type cons struct {
			coef []float64
			rhs  float64
		}
		conss := make([]cons, mc)
		for i := range conss {
			coef := make([]float64, nv)
			for j := range coef {
				coef[j] = math.Round(rng.Float64() * 4)
			}
			conss[i] = cons{coef, math.Round(rng.Float64() * float64(nv) * 2)}
		}

		// Brute force.
		bestObj := math.Inf(-1)
		feasible := false
		for mask := 0; mask < 1<<nv; mask++ {
			ok := true
			for _, c := range conss {
				sum := 0.0
				for j := 0; j < nv; j++ {
					if mask&(1<<j) != 0 {
						sum += c.coef[j]
					}
				}
				if sum > c.rhs+1e-9 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			feasible = true
			val := 0.0
			for j := 0; j < nv; j++ {
				if mask&(1<<j) != 0 {
					val += obj[j]
				}
			}
			if val > bestObj {
				bestObj = val
			}
		}

		// B&B.
		p := NewProblem(lp.Maximize)
		vars := make([]int, nv)
		for j := 0; j < nv; j++ {
			vars[j] = p.AddBinary(obj[j], "")
		}
		for _, c := range conss {
			p.LP.AddConstraint(vars, c.coef, lp.LE, c.rhs, "")
		}
		sol, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if !feasible {
			if sol.Status != Infeasible {
				t.Fatalf("trial %d: want infeasible, got %v", trial, sol.Status)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		if !approxEq(sol.Objective, bestObj, 1e-6) {
			t.Fatalf("trial %d: obj %g, brute force %g", trial, sol.Objective, bestObj)
		}
	}
}

func TestNodeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewProblem(lp.Maximize)
	nv := 20
	vars := make([]int, nv)
	coef := make([]float64, nv)
	for j := 0; j < nv; j++ {
		vars[j] = p.AddBinary(rng.Float64()*10, "")
		coef[j] = 1 + rng.Float64()*3
	}
	p.LP.AddConstraint(vars, coef, lp.LE, 20, "")
	sol, err := p.SolveWithOptions(Options{MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Feasible && sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Status == Feasible && sol.Gap <= 0 {
		t.Fatalf("expected positive gap at early exit, got %g", sol.Gap)
	}
}

func TestBoundReporting(t *testing.T) {
	p := NewProblem(lp.Maximize)
	x := p.AddBinary(3, "x")
	y := p.AddBinary(2, "y")
	p.LP.AddConstraint([]int{x, y}, []float64{2, 2}, lp.LE, 3, "")
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approxEq(sol.Objective, 3, 1e-6) {
		t.Fatalf("got %v obj=%g", sol.Status, sol.Objective)
	}
	if !approxEq(sol.Bound, sol.Objective, 1e-6) {
		t.Fatalf("bound %g != objective %g at optimality", sol.Bound, sol.Objective)
	}
}

// TestOptionsSurface pins the exported fields of Options, as lp's test of
// the same name does: every field is a configuration the suites and the
// benchmark must cover, so a new one displaces an old one.
func TestOptionsSurface(t *testing.T) {
	want := []string{"Workers", "MaxNodes", "TimeLimit", "RelGap", "Incumbent", "RootBasis", "ColdNodes", "Obs"}
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Options{})) {
		if f.IsExported() {
			got = append(got, f.Name)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("exported Options fields = %v, want exactly %v", got, want)
	}
}
