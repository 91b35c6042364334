package milp_test

// Property suite for the persistent-model branch and bound: the warm search
// (per-node dual-simplex re-solves from parent basis snapshots over one
// persistent lp.Model) must reach exactly the outcomes of the cold-per-node
// baseline (Options.ColdNodes) — same status, objectives within 1e-6, and a
// feasible integral incumbent — over lb-shaped instances (the §4.3
// formulation the search exists for), random binary programs, and the MPS
// fixtures. It lives in an external test package so it can drive the real
// lb formulation through lb.BuildMILP without an import cycle.

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"pop/internal/lb"
	"pop/internal/lp"
	"pop/internal/milp"
)

// checkWarmColdAgree solves prob both ways and enforces the equivalence
// contract, returning the two solutions for extra assertions.
func checkWarmColdAgree(t *testing.T, label string, prob *milp.Problem, opts milp.Options) (warm, cold *milp.Solution) {
	t.Helper()
	warmOpts := opts
	warmOpts.ColdNodes = false
	coldOpts := opts
	coldOpts.ColdNodes = true

	warm, err := prob.SolveWithOptions(warmOpts)
	if err != nil {
		t.Fatalf("%s: warm: %v", label, err)
	}
	cold, err = prob.SolveWithOptions(coldOpts)
	if err != nil {
		t.Fatalf("%s: cold: %v", label, err)
	}
	if warm.Status != cold.Status {
		t.Fatalf("%s: status warm=%v cold=%v", label, warm.Status, cold.Status)
	}
	if warm.Status != milp.Optimal {
		return warm, cold
	}
	if !approxEqT(warm.Objective, cold.Objective) {
		t.Fatalf("%s: objective warm=%.12g cold=%.12g", label, warm.Objective, cold.Objective)
	}
	for _, sol := range []*milp.Solution{warm, cold} {
		if err := prob.LP.CheckFeasible(sol.X, 1e-6); err != nil {
			t.Fatalf("%s: incumbent infeasible: %v", label, err)
		}
	}
	return warm, cold
}

func approxEqT(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}

// integral asserts every integer-constrained variable of sol sits on an
// integer within tolerance.
func integral(t *testing.T, label string, intVars []int, x []float64) {
	t.Helper()
	for _, v := range intVars {
		if math.Abs(x[v]-math.Round(x[v])) > 1e-6 {
			t.Fatalf("%s: variable %d fractional: %g", label, v, x[v])
		}
	}
}

// TestPersistentEqualsColdOnLBInstances drives randomized §4.3 instances —
// the MILP whose node re-solves the persistent model exists for — through
// both searches.
func TestPersistentEqualsColdOnLBInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	trials := 12
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		shards := 6 + rng.Intn(8)
		servers := 2 + rng.Intn(3)
		inst := lb.NewInstance(shards, servers, 0.05+rng.Float64()*0.1, int64(100+trial))
		inst.ShiftLoads(int64(200 + trial))
		prob, _, mVar := lb.BuildMILP(inst)

		label := "lb trial"
		warm, cold := checkWarmColdAgree(t, label, prob, milp.Options{MaxNodes: 20000})
		if warm.Status != milp.Optimal {
			continue
		}
		var ints []int
		for _, row := range mVar {
			ints = append(ints, row...)
		}
		integral(t, label, ints, warm.X)
		integral(t, label, ints, cold.X)
		if warm.RootBasis == nil {
			t.Fatalf("trial %d: no root basis emitted", trial)
		}
		// The warm search must actually engage its warm machinery whenever
		// it branched at all.
		if warm.Nodes > 3 && warm.WarmNodes == 0 {
			t.Fatalf("trial %d: %d nodes solved, none warm", trial, warm.Nodes)
		}
		if cold.WarmNodes != 0 || cold.ColdFallbacks != 0 {
			t.Fatalf("trial %d: cold search booked warm nodes: %+v", trial, cold.SearchStats)
		}
	}
}

// TestPersistentEqualsColdOnRandomBinaries fuzzes small random binary
// programs (any status can come out) through both searches.
func TestPersistentEqualsColdOnRandomBinaries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 40
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		nv := 4 + rng.Intn(10)
		mc := 1 + rng.Intn(4)
		prob := milp.NewProblem(lp.Maximize)
		vars := make([]int, nv)
		for j := 0; j < nv; j++ {
			vars[j] = prob.AddBinary(math.Round(rng.NormFloat64()*10)/2, "")
		}
		for i := 0; i < mc; i++ {
			coef := make([]float64, nv)
			for j := range coef {
				coef[j] = math.Round(rng.Float64() * 4)
			}
			sense := lp.LE
			if rng.Intn(4) == 0 {
				sense = lp.GE
			}
			prob.LP.AddConstraint(vars, coef, sense, math.Round(rng.Float64()*float64(nv)), "")
		}
		warm, _ := checkWarmColdAgree(t, "binary trial", prob, milp.Options{})
		if warm.Status == milp.Optimal {
			integral(t, "binary trial", vars, warm.X)
		}
	}
}

// intMPSFixtures are MILPs in MPS form (MARKER sections), mirroring what
// cmd/popsolve feeds the solver.
var intMPSFixtures = []struct {
	name string
	src  string
	obj  float64
}{
	{"knap", `NAME KNAP
OBJSENSE
    MAX
ROWS
 N  OBJ
 L  CAP
COLUMNS
    MARKER  'MARKER'  'INTORG'
    X  OBJ  60  CAP  10
    Y  OBJ  100  CAP  20
    Z  OBJ  120  CAP  30
    MARKER  'MARKER'  'INTEND'
RHS
    RHS  CAP  50
BOUNDS
 UP BND  X  1
 UP BND  Y  1
 UP BND  Z  1
ENDATA
`, 220},
	{"mixed", `NAME MIXED
OBJSENSE
    MAX
ROWS
 N  OBJ
 L  R1
COLUMNS
    MARKER  'MARKER'  'INTORG'
    X  OBJ  3  R1  1
    MARKER  'MARKER'  'INTEND'
    Y  OBJ  2  R1  1
RHS
    RHS  R1  2
BOUNDS
 UP BND  X  1
 UP BND  Y  1.5
ENDATA
`, 5},
	{"intinfeasible", `NAME II
ROWS
 N  OBJ
 E  R1
COLUMNS
    MARKER  'MARKER'  'INTORG'
    X  OBJ  1  R1  2
    MARKER  'MARKER'  'INTEND'
RHS
    RHS  R1  1
BOUNDS
 UP BND  X  1
ENDATA
`, 0},
}

// TestPersistentEqualsColdOnMPSFixtures runs the MPS corpus through both
// searches and against the known optima.
func TestPersistentEqualsColdOnMPSFixtures(t *testing.T) {
	for _, fx := range intMPSFixtures {
		t.Run(fx.name, func(t *testing.T) {
			p, ints, err := lp.ReadMPS(strings.NewReader(fx.src))
			if err != nil {
				t.Fatal(err)
			}
			if len(ints) == 0 {
				t.Fatal("fixture lost its integer markers")
			}
			prob := milp.Wrap(p, ints)
			warm, _ := checkWarmColdAgree(t, fx.name, prob, milp.Options{})
			if warm.Status == milp.Optimal {
				if !approxEqT(warm.Objective, fx.obj) {
					t.Fatalf("objective %g, want %g", warm.Objective, fx.obj)
				}
				integral(t, fx.name, ints, warm.X)
			}
		})
	}
}

// TestRootBasisSeeding re-solves a perturbed instance with the previous
// solve's root basis: outcomes must be unchanged and the root must accept
// the seed (a warm node beyond what the unseeded search books).
func TestRootBasisSeeding(t *testing.T) {
	inst := lb.NewInstance(10, 3, 0.08, 51)
	inst.ShiftLoads(52)
	prob, _, _ := lb.BuildMILP(inst)
	first, err := prob.SolveWithOptions(milp.Options{MaxNodes: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != milp.Optimal || first.RootBasis == nil {
		t.Fatalf("reference solve: status %v, basis %v", first.Status, first.RootBasis != nil)
	}

	// Next round: loads drift, formulation shape is identical.
	inst.ShiftLoads(53)
	prob2, _, _ := lb.BuildMILP(inst)
	seeded, err := prob2.SolveWithOptions(milp.Options{MaxNodes: 20000, RootBasis: first.RootBasis})
	if err != nil {
		t.Fatal(err)
	}
	unseeded, err := prob2.SolveWithOptions(milp.Options{MaxNodes: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Status != unseeded.Status {
		t.Fatalf("status seeded=%v unseeded=%v", seeded.Status, unseeded.Status)
	}
	if seeded.Status == milp.Optimal && !approxEqT(seeded.Objective, unseeded.Objective) {
		t.Fatalf("objective seeded=%g unseeded=%g", seeded.Objective, unseeded.Objective)
	}
	if seeded.WarmNodes+seeded.ColdFallbacks <= unseeded.WarmNodes+unseeded.ColdFallbacks {
		t.Fatalf("root seed not attempted: seeded %+v, unseeded %+v",
			seeded.SearchStats, unseeded.SearchStats)
	}
}

// TestWarmSearchCutsPivots is the perf contract lb's BenchmarkSearch reports
// on: on an lb instance with a real search tree, the persistent-model search
// must spend well under half the cold baseline's pivots.
func TestWarmSearchCutsPivots(t *testing.T) {
	inst := lb.NewInstance(14, 4, 0.05, 71)
	inst.ShiftLoads(72)
	prob, _, _ := lb.BuildMILP(inst)
	warm, cold := checkWarmColdAgree(t, "pivot budget", prob, milp.Options{MaxNodes: 20000})
	if warm.Status != milp.Optimal || warm.Nodes < 4 {
		t.Skipf("instance too easy for a pivot comparison: %v, %d nodes", warm.Status, warm.Nodes)
	}
	if warm.LPPivots*2 > cold.LPPivots {
		t.Fatalf("warm search took %d pivots, cold %d — less than 2x win", warm.LPPivots, cold.LPPivots)
	}
	if warm.DualPivots == 0 {
		t.Fatal("dual simplex never engaged on bound-only node deltas")
	}
}
