package propfair

import (
	"math"
	"math/rand"
	"testing"
)

// randomProblem builds a feasible instance with realistic GPU-like
// throughput ratios.
func randomProblem(n int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := &Problem{
		T:   make([][]float64, n),
		Cap: []float64{float64(n) / 3, float64(n) / 3, float64(n) / 3},
	}
	for j := 0; j < n; j++ {
		base := 0.5 + rng.Float64()
		p.T[j] = []float64{base, base * (1.5 + rng.Float64()), base * (3 + 2*rng.Float64())}
	}
	return p
}

func TestFrankWolfeTwoJobsClosedForm(t *testing.T) {
	// Two identical jobs, one resource with capacity 1: symmetric optimum
	// A = [[0.5], [0.5]], objective 2·log(0.5·T).
	p := &Problem{
		T:   [][]float64{{2}, {2}},
		Cap: []float64{1},
	}
	sol, err := p.SolveFrankWolfe(FWOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * math.Log(1) // 0.5 * 2 = 1 throughput each
	if math.Abs(sol.Objective-want) > 5e-3 {
		t.Fatalf("objective = %g, want %g", sol.Objective, want)
	}
	if math.Abs(sol.A[0][0]-0.5) > 0.02 {
		t.Fatalf("A = %v, want ~[[0.5],[0.5]]", sol.A)
	}
}

func TestFrankWolfeAsymmetricWeights(t *testing.T) {
	// One resource, two jobs, weights 2:1 → Eisenberg-Gale optimum splits
	// capacity 2/3 : 1/3.
	p := &Problem{
		T:   [][]float64{{1}, {1}},
		W:   []float64{2, 1},
		Cap: []float64{1},
	}
	sol, err := p.SolveFrankWolfe(FWOptions{MaxIters: 400, Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.A[0][0]-2.0/3) > 0.02 || math.Abs(sol.A[1][0]-1.0/3) > 0.02 {
		t.Fatalf("A = %v, want [2/3, 1/3]", sol.A)
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

func TestPriceDiscoveryAgreesWithFrankWolfe(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		p := randomProblem(24, seed)
		fw, err := p.SolveFrankWolfe(FWOptions{MaxIters: 300, Tol: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		pd, err := p.SolvePriceDiscovery(PDOptions{MaxIters: 1500})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.VerifyFeasible(pd.A, 1e-6); err != nil {
			t.Fatal(err)
		}
		// With the exact per-job best response, PD converges tightly; the
		// two solvers must agree to within a small absolute gap (both stop
		// at finite tolerance, so either may lead slightly).
		if math.Abs(pd.Objective-fw.Objective) > 0.05 {
			t.Fatalf("seed %d: PD %g vs FW %g", seed, pd.Objective, fw.Objective)
		}
	}
}

func TestObjectiveInfForZeroThroughput(t *testing.T) {
	p := &Problem{T: [][]float64{{1}}, Cap: []float64{1}}
	A := [][]float64{{0}}
	if !math.IsInf(p.Objective(A), -1) {
		t.Fatal("expected -Inf for zero allocation")
	}
}

func TestValidate(t *testing.T) {
	p := &Problem{}
	if err := p.Validate(); err == nil {
		t.Fatal("empty problem should fail validation")
	}
	p2 := &Problem{T: [][]float64{{1, 2}}, Cap: []float64{1}}
	if err := p2.Validate(); err == nil {
		t.Fatal("ragged T should fail validation")
	}
	p3 := &Problem{T: [][]float64{{1}}, Cap: []float64{1}, W: []float64{1, 2}}
	if err := p3.Validate(); err == nil {
		t.Fatal("wrong W length should fail validation")
	}
}

func TestScaledJobs(t *testing.T) {
	// Jobs occupying multiple units must consume proportionally more
	// capacity.
	p := &Problem{
		T:   [][]float64{{1}, {1}},
		Z:   []float64{3, 1},
		Cap: []float64{2},
	}
	sol, err := p.SolveFrankWolfe(FWOptions{MaxIters: 300})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.VerifyFeasible(sol.A, 1e-6); err != nil {
		t.Fatal(err)
	}
	used := 3*sol.A[0][0] + sol.A[1][0]
	if used > 2+1e-6 {
		t.Fatalf("capacity violated: %g", used)
	}
}
