package milp_test

// Search-level contracts: the search is deterministic and ignores
// Options.Workers, fathoming honours RelGap, heuristic re-solves spare the
// node budget, and best-bound jumps restart warm.

import (
	"reflect"
	"testing"

	"pop/internal/lb"
	"pop/internal/lp"
	"pop/internal/milp"
)

// TestWorkersIgnored: Options.Workers is deprecated and ignored, so a
// search that asks for four workers returns exactly the Solution of one —
// incumbent, bound, node and pivot counts — apart from the timing fields.
func TestWorkersIgnored(t *testing.T) {
	inst := lb.NewInstance(12, 3, 0.05, 91)
	inst.ShiftLoads(92)
	prob, _, _ := lb.BuildMILP(inst)
	solve := func(workers int) *milp.Solution {
		//lint:ignore SA1019 the test pins that the deprecated field is ignored
		sol, err := prob.SolveWithOptions(milp.Options{Workers: workers, MaxNodes: 20000})
		if err != nil {
			t.Fatal(err)
		}
		sol.BuildNs, sol.SolveNs = 0, 0
		return sol
	}
	one, four := solve(1), solve(4)
	if one.Nodes < 3 {
		t.Fatalf("instance solved in %d nodes; it must branch to say anything", one.Nodes)
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("Workers=4 differs from Workers=1:\n  %+v\n  %+v", four.SearchStats, one.SearchStats)
	}
}

// TestWorkersOneDeterministic pins the determinism contract: two runs on a
// fixed seed instance are identical down to node, pivot, and warm-start
// counts (the timing fields are the only nondeterminism left).
func TestWorkersOneDeterministic(t *testing.T) {
	inst := lb.NewInstance(11, 3, 0.06, 77)
	prob, _, _ := lb.BuildMILP(inst)
	opts := milp.Options{MaxNodes: 20000}
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

// TestParallelSearchWarmsNodes checks the best-bound jump stays warm: on an
// instance that branches, nodes popped from the open heap install their
// carried snapshots and the dual simplex engages.
func TestParallelSearchWarmsNodes(t *testing.T) {
	inst := lb.NewInstance(14, 4, 0.04, 321)
	prob, _, _ := lb.BuildMILP(inst)
	sol, err := prob.SolveWithOptions(milp.Options{MaxNodes: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Nodes > 3 && sol.WarmNodes == 0 {
		t.Fatalf("%d nodes solved, none warm", sol.Nodes)
	}
}
