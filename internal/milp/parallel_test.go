package milp_test

// Property suite for the parallel branch and bound: any worker count must
// reach the same status and objective (to solver tolerance) with a feasible
// integral incumbent — node and pivot counts may differ, since workers race
// for nodes — and Workers=1 must be deterministic run to run. CI runs this
// file under -race; the coordinator mutex, the copy-on-write model clones,
// and the clone-on-install basis snapshots are exactly the machinery it
// stresses.

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"pop/internal/lb"
	"pop/internal/lp"
	"pop/internal/milp"
)

// workerCounts is the sweep every equivalence check runs: sequential, the
// smallest genuinely concurrent count, and everything the machine has.
func workerCounts() []int {
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		counts = append(counts, n)
	}
	return counts
}

// checkWorkersAgree solves prob at every worker count and enforces the
// cross-worker-count equivalence contract.
func checkWorkersAgree(t *testing.T, label string, prob *milp.Problem, opts milp.Options, intVars []int) []*milp.Solution {
	t.Helper()
	var sols []*milp.Solution
	for _, w := range workerCounts() {
		o := opts
		o.Workers = w
		sol, err := prob.SolveWithOptions(o)
		if err != nil {
			t.Fatalf("%s: workers=%d: %v", label, w, err)
		}
		sols = append(sols, sol)
	}
	base := sols[0]
	for i, sol := range sols[1:] {
		w := workerCounts()[i+1]
		if sol.Status != base.Status {
			t.Fatalf("%s: status workers=1 %v, workers=%d %v", label, base.Status, w, sol.Status)
		}
		if base.Status == milp.Optimal && !approxEqT(sol.Objective, base.Objective) {
			t.Fatalf("%s: objective workers=1 %.12g, workers=%d %.12g", label, base.Objective, w, sol.Objective)
		}
	}
	if base.Status == milp.Optimal || base.Status == milp.Feasible {
		for i, sol := range sols {
			if err := prob.LP.CheckFeasible(sol.X, 1e-6); err != nil {
				t.Fatalf("%s: workers=%d incumbent infeasible: %v", label, workerCounts()[i], err)
			}
			integral(t, label, intVars, sol.X)
		}
	}
	return sols
}

// TestParallelEquivalenceOnLBInstances drives randomized §4.3 instances —
// the MILP the parallel search exists for — through every worker count.
func TestParallelEquivalenceOnLBInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	trials := 8
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		shards := 6 + rng.Intn(8)
		servers := 2 + rng.Intn(3)
		inst := lb.NewInstance(shards, servers, 0.05+rng.Float64()*0.1, int64(500+trial))
		inst.ShiftLoads(int64(600 + trial))
		prob, _, mVar := lb.BuildMILP(inst)
		var ints []int
		for _, row := range mVar {
			ints = append(ints, row...)
		}
		checkWorkersAgree(t, "lb parallel", prob, milp.Options{MaxNodes: 20000}, ints)
	}
}

// TestParallelEquivalenceOnRandomBinaries fuzzes small random binary
// programs (any status can come out) across worker counts.
func TestParallelEquivalenceOnRandomBinaries(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	trials := 25
	if testing.Short() {
		trials = 8
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
		checkWorkersAgree(t, "binary parallel", prob, milp.Options{}, vars)
	}
}

// TestWorkersOneDeterministic pins the sequential contract: two Workers=1
// runs with a fixed seed instance are identical down to node, pivot, and
// warm-start counts (the timing fields are the only nondeterminism left).
func TestWorkersOneDeterministic(t *testing.T) {
	inst := lb.NewInstance(11, 3, 0.06, 77)
	prob, _, _ := lb.BuildMILP(inst)
	opts := milp.Options{Workers: 1, MaxNodes: 20000}
	a, err := prob.SolveWithOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := prob.SolveWithOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Status != b.Status || a.Objective != b.Objective {
		t.Fatalf("outcome differs: %v %.12g vs %v %.12g", a.Status, a.Objective, b.Status, b.Objective)
	}
	sa, sb := a.SearchStats, b.SearchStats
	sa.BuildNs, sa.SolveNs, sb.BuildNs, sb.SolveNs = 0, 0, 0, 0
	if sa != sb {
		t.Fatalf("search stats differ between identical runs:\n  %+v\n  %+v", sa, sb)
	}
}

// TestRelGapFathomingPrunes is the fathoming regression test: the old prune
// compared node bounds only against incumbent+absGap, so a loose RelGap
// terminated the search but never pruned with it. With the combined cutoff
// a RelGap-limited run must explore strictly fewer nodes than the
// prove-to-absGap run and still land inside the requested gap.
func TestRelGapFathomingPrunes(t *testing.T) {
	inst := lb.NewInstance(13, 4, 0.04, 123)
	prob, _, _ := lb.BuildMILP(inst)

	tight, err := prob.SolveWithOptions(milp.Options{MaxNodes: 50000, RelGap: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Status != milp.Optimal {
		t.Skipf("instance not solved to optimality: %v", tight.Status)
	}
	loose, err := prob.SolveWithOptions(milp.Options{MaxNodes: 50000, RelGap: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Status != milp.Optimal {
		t.Fatalf("loose-gap run: %v", loose.Status)
	}
	if loose.Nodes >= tight.Nodes {
		t.Fatalf("RelGap=0.05 explored %d nodes, tight run %d — relative gap not fathoming", loose.Nodes, tight.Nodes)
	}
	// The incumbent must still be within the requested relative gap of the
	// true optimum (lb minimizes makespan).
	if loose.Objective > tight.Objective*(1+0.05)+1e-9 {
		t.Fatalf("loose incumbent %.9g outside RelGap of optimum %.9g", loose.Objective, tight.Objective)
	}
}

// TestHeuristicSolvesSpareNodeBudget is the node-accounting regression
// test: root rounding re-solves are booked as HeuristicSolves, so a
// MaxNodes budget of 1 still admits the root relaxation and exits with the
// heuristic incumbent instead of burning the budget before branching.
func TestHeuristicSolvesSpareNodeBudget(t *testing.T) {
	// A knapsack with a fractional root: floor-rounding an LE knapsack is
	// always feasible, so the heuristic is guaranteed to plant an incumbent
	// (lb's assignment EQ rows would reject rounding outright).
	prob := milp.NewProblem(lp.Maximize)
	a := prob.AddBinary(5, "a")
	b := prob.AddBinary(6, "b")
	c := prob.AddBinary(4, "c")
	prob.LP.AddConstraint([]int{a, b, c}, []float64{3, 5, 4}, lp.LE, 6, "cap")

	sol, err := prob.SolveWithOptions(milp.Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.HeuristicSolves == 0 {
		t.Fatal("root rounding booked no heuristic solves")
	}
	if sol.Nodes != 1 {
		t.Fatalf("MaxNodes=1 solved %d nodes; heuristics are leaking into the budget", sol.Nodes)
	}
	if sol.Status != milp.Feasible && sol.Status != milp.Optimal {
		t.Fatalf("status %v: rounding incumbent lost", sol.Status)
	}
	if err := prob.LP.CheckFeasible(sol.X, 1e-6); err != nil {
		t.Fatalf("heuristic incumbent infeasible: %v", err)
	}
}

// TestParallelSearchWarmsNodes checks the steal path stays warm: at
// Workers=2 on an instance that branches, stolen nodes install their
// carried snapshots and the dual simplex engages.
func TestParallelSearchWarmsNodes(t *testing.T) {
	inst := lb.NewInstance(14, 4, 0.04, 321)
	prob, _, _ := lb.BuildMILP(inst)
	sol, err := prob.SolveWithOptions(milp.Options{Workers: 2, MaxNodes: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Nodes > 3 && sol.WarmNodes == 0 {
		t.Fatalf("%d nodes solved across 2 workers, none warm", sol.Nodes)
	}
}
