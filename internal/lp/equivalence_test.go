package lp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Cross-solver equivalence harness: every MPS fixture and ~200 randomly
// generated feasible/infeasible/unbounded/degenerate LPs run through the
// sparse LU factor every solve starts on and through the dense inverse it
// falls back to (Options.dense), which must report the same status and (when
// optimal) objectives within 1e-6.

// factors names the two basis factors a test can start a solve on.
var factors = []struct {
	name string
	opts Options
}{{"dense", Options{dense: true}}, {"sparselu", Options{}}}

// solveBoth solves independent clones of p on each factor and checks the
// agreement contract, returning the two solutions for extra assertions.
func solveBoth(t *testing.T, label string, p *Problem) (dense, sparse *Solution) {
	t.Helper()
	pd, ps := cloneProblem(p), cloneProblem(p)
	var err error
	dense, err = pd.SolveWithOptions(Options{dense: true})
	if err != nil {
		t.Fatalf("%s: dense: %v", label, err)
	}
	sparse, err = ps.SolveWithOptions(Options{})
	if err != nil {
		t.Fatalf("%s: sparselu: %v", label, err)
	}
	if dense.Status != sparse.Status {
		t.Fatalf("%s: status dense=%v sparselu=%v", label, dense.Status, sparse.Status)
	}
	if dense.Status == Optimal {
		if !approxEq(dense.Objective, sparse.Objective, 1e-6) {
			t.Fatalf("%s: objective dense=%.12g sparselu=%.12g", label, dense.Objective, sparse.Objective)
		}
		if err := p.CheckFeasible(dense.X, 1e-6); err != nil {
			t.Fatalf("%s: dense solution infeasible: %v", label, err)
		}
		if err := p.CheckFeasible(sparse.X, 1e-6); err != nil {
			t.Fatalf("%s: sparselu solution infeasible: %v", label, err)
		}
	}
	return dense, sparse
}

// mpsFixtures is the fixture corpus: name, MPS source, and the status both
// factors must report.
var mpsFixtures = []struct {
	name   string
	src    string
	status Status
}{
	{"chocolate", sampleMPS, Optimal},
	{"bounds", `NAME T
ROWS
 N  OBJ
 G  R1
COLUMNS
    A  OBJ  1  R1  1
    B  OBJ  1  R1  1
    C  OBJ  1  R1  1
    D  OBJ  1  R1  1
RHS
    RHS  R1  -100
BOUNDS
 UP BND  A  4
 LO BND  B  -2
 FX BND  C  7
 FR BND  D
ENDATA
`, Optimal},
	{"ranges", `NAME T
ROWS
 N  OBJ
 L  R1
COLUMNS
    X  OBJ  -1  R1  1
RHS
    RHS  R1  10
RANGES
    RNG  R1  4
ENDATA
`, Optimal},
	{"transport", `* degenerate transportation model
NAME TRANS
ROWS
 N  COST
 L  S1
 L  S2
 E  D1
 E  D2
 E  D3
COLUMNS
    X11  COST  2  S1  1
    X11  D1  1
    X12  COST  4  S1  1
    X12  D2  1
    X13  COST  5  S1  1
    X13  D3  1
    X21  COST  3  S2  1
    X21  D1  1
    X22  COST  1  S2  1
    X22  D2  1
    X23  COST  7  S2  1
    X23  D3  1
RHS
    RHS  S1  20  S2  30
    RHS  D1  10  D2  25
    RHS  D3  15
ENDATA
`, Optimal},
	{"infeasible", `NAME INF
OBJSENSE
    MAX
ROWS
 N  OBJ
 G  LO
 L  HI
COLUMNS
    X  OBJ  1  LO  1
    X  HI  1
RHS
    RHS  LO  5  HI  3
ENDATA
`, Infeasible},
	{"unbounded", `NAME UNB
OBJSENSE
    MAX
ROWS
 N  OBJ
 L  R1
COLUMNS
    X  OBJ  1  R1  1
    Y  R1  -1
RHS
    RHS  R1  1
ENDATA
`, Unbounded},
}

func TestBackendsAgreeOnMPSFixtures(t *testing.T) {
	for _, fx := range mpsFixtures {
		t.Run(fx.name, func(t *testing.T) {
			p, _, err := ReadMPS(strings.NewReader(fx.src))
			if err != nil {
				t.Fatal(err)
			}
			dense, _ := solveBoth(t, fx.name, p)
			if dense.Status != fx.status {
				t.Fatalf("status = %v, want %v", dense.Status, fx.status)
			}
		})
	}
}

// randomMixedLP draws senses, bounds, and signs freely, so any status can
// come out; equivalence is judged per-instance.
func randomMixedLP(rng *rand.Rand, m, n int) *Problem {
	obj := Minimize
	if rng.Intn(2) == 0 {
		obj = Maximize
	}
	p := NewProblem(obj)
	for j := 0; j < n; j++ {
		lb, ub := 0.0, 5.0
		switch rng.Intn(5) {
		case 0:
			lb, ub = -Inf, Inf // free
		case 1:
			lb, ub = -3, Inf
		case 2:
			lb, ub = -Inf, 4
		case 3:
			v := rng.Float64() * 2
			lb, ub = v, v // fixed
		}
		p.AddVariable(rng.NormFloat64(), lb, ub, "")
	}
	for i := 0; i < m; i++ {
		var idx []int
		var val []float64
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.35 {
				idx = append(idx, j)
				val = append(val, rng.NormFloat64()*2)
			}
		}
		if len(idx) == 0 {
			continue
		}
		sense := Sense(rng.Intn(3))
		p.AddConstraint(idx, val, sense, rng.NormFloat64()*4, "")
	}
	return p
}

// randomInfeasibleLP plants two contradictory constraints over the same
// expression inside otherwise random rows.
func randomInfeasibleLP(rng *rand.Rand, m, n int) *Problem {
	p := randomFeasibleLP(rng, m, n)
	idx := make([]int, n)
	val := make([]float64, n)
	for j := 0; j < n; j++ {
		idx[j] = j
		val[j] = rng.Float64() + 0.1
	}
	hi := rng.Float64() * 3
	p.AddConstraint(idx, val, LE, hi, "cap")
	p.AddConstraint(idx, val, GE, hi+1+rng.Float64(), "contradiction")
	return p
}

// randomUnboundedLP gives one free variable a favorable objective and keeps
// it out of every constraint.
func randomUnboundedLP(rng *rand.Rand, m, n int) *Problem {
	p := randomFeasibleLP(rng, m, n)
	p.AddVariable(1+rng.Float64(), -Inf, Inf, "ray") // maximize an unconstrained var
	return p
}

// randomDegenerateLP routes many tied constraints through one vertex so the
// ratio test hits long runs of zero-length steps.
func randomDegenerateLP(rng *rand.Rand, n int) *Problem {
	p := NewProblem(Maximize)
	for j := 0; j < n; j++ {
		p.AddVariable(1+rng.Float64(), 0, Inf, "")
	}
	// Every subset-sum constraint is tight at x = (1,...,1).
	for i := 0; i < 3*n; i++ {
		var idx []int
		var val []float64
		rhs := 0.0
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.5 {
				c := float64(1 + rng.Intn(3))
				idx = append(idx, j)
				val = append(val, c)
				rhs += c
			}
		}
		if len(idx) == 0 {
			continue
		}
		p.AddConstraint(idx, val, LE, rhs, "")
	}
	return p
}

func TestBackendsAgreeOnRandomLPs(t *testing.T) {
	type genCase struct {
		kind string
		gen  func(rng *rand.Rand, trial int) *Problem
		n    int
	}
	cases := []genCase{
		{"feasible", func(rng *rand.Rand, _ int) *Problem {
			return randomFeasibleLP(rng, 4+rng.Intn(12), 6+rng.Intn(18))
		}, 60},
		{"mixed", func(rng *rand.Rand, _ int) *Problem {
			return randomMixedLP(rng, 3+rng.Intn(10), 4+rng.Intn(12))
		}, 60},
		{"infeasible", func(rng *rand.Rand, _ int) *Problem {
			return randomInfeasibleLP(rng, 3+rng.Intn(6), 4+rng.Intn(8))
		}, 30},
		{"unbounded", func(rng *rand.Rand, _ int) *Problem {
			return randomUnboundedLP(rng, 3+rng.Intn(6), 4+rng.Intn(8))
		}, 20},
		{"degenerate", func(rng *rand.Rand, _ int) *Problem {
			return randomDegenerateLP(rng, 4+rng.Intn(8))
		}, 30},
	}
	total := 0
	for _, c := range cases {
		c := c
		t.Run(c.kind, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(c.kind)) * 1911))
			for trial := 0; trial < c.n; trial++ {
				p := c.gen(rng, trial)
				label := fmt.Sprintf("%s/%d", c.kind, trial)
				dense, _ := solveBoth(t, label, p)
				switch c.kind {
				case "feasible", "degenerate":
					if dense.Status != Optimal {
						t.Fatalf("%s: status %v, want optimal", label, dense.Status)
					}
				case "infeasible":
					if dense.Status != Infeasible {
						t.Fatalf("%s: status %v, want infeasible", label, dense.Status)
					}
				case "unbounded":
					if dense.Status != Unbounded {
						t.Fatalf("%s: status %v, want unbounded", label, dense.Status)
					}
				}
			}
		})
		total += c.n
	}
	if total < 200 {
		t.Fatalf("equivalence corpus shrank to %d instances; keep it at 200", total)
	}
}

// TestBackendsAgreeWithScaling: the two factors stay interchangeable on
// random feasible LPs.
func TestBackendsAgreeWithScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		p := randomFeasibleLP(rng, 8, 14)
		pd, ps := cloneProblem(p), cloneProblem(p)
		sd, err := pd.SolveWithOptions(Options{dense: true})
		if err != nil {
			t.Fatal(err)
		}
		ss, err := ps.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if sd.Status != ss.Status {
			t.Fatalf("trial %d: status %v vs %v", trial, sd.Status, ss.Status)
		}
		if sd.Status == Optimal && !approxEq(sd.Objective, ss.Objective, 1e-6) {
			t.Fatalf("trial %d: obj %.12g vs %.12g", trial, sd.Objective, ss.Objective)
		}
	}
}
