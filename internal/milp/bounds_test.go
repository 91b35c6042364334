package milp_test

// Degenerate bounds and rows, end to end through SolveWithOptions: integer
// bounds are rounded inward before the root (crossed rounded bounds prove
// infeasibility without an LP solve), and fixed variables, empty rows and
// rows that fixed variables collapse to constants go to the LP solver as
// built, which must handle them.

import (
	"testing"

	"pop/internal/lp"
	"pop/internal/milp"
)

// TestPresolveFixedVariableSubstitution builds a knapsack with one binary
// pre-fixed to 1 by its bounds: the fixed variable's weight must be charged
// against the capacity and its value must appear in the objective.
func TestPresolveFixedVariableSubstitution(t *testing.T) {
	prob := milp.NewProblem(lp.Maximize)
	a := prob.AddBinary(5, "a")
	b := prob.AddBinary(4, "b")
	c := prob.AddBinary(3, "c")
	prob.LP.SetBounds(a, 1, 1) // pre-fixed: always packed
	// Capacity 5; a eats 3, leaving residual 2 — room for c (w=2), not b
	// (w=3). Dropping a's weight from the row instead of substituting it
	// into the rhs would admit b and report 9.
	prob.LP.AddConstraint([]int{a, b, c}, []float64{3, 3, 2}, lp.LE, 5, "cap")

	sol, err := prob.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != milp.Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if !approxEqT(sol.Objective, 8) { // a=1, c=1 (5+3)
		t.Fatalf("objective %.9g, want 8", sol.Objective)
	}
	if sol.X[a] != 1 {
		t.Fatalf("fixed variable moved: x[a]=%g", sol.X[a])
	}
}

// TestPresolveEmptyAndConstantRows checks consistent empty rows and rows
// collapsed to constants by fixed variables leave the outcome alone, and an
// inconsistent empty row proves the MILP infeasible.
func TestPresolveEmptyAndConstantRows(t *testing.T) {
	build := func(emptyRHS float64) *milp.Problem {
		prob := milp.NewProblem(lp.Maximize)
		a := prob.AddBinary(2, "a")
		b := prob.AddBinary(1, "b")
		prob.LP.SetBounds(a, 1, 1)
		prob.LP.AddConstraint(nil, nil, lp.LE, emptyRHS, "empty")
		prob.LP.AddConstraint([]int{a}, []float64{1}, lp.LE, 1, "const") // collapses once a is fixed
		prob.LP.AddConstraint([]int{a, b}, []float64{1, 1}, lp.LE, 2, "cap")
		return prob
	}

	sol, err := build(0).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != milp.Optimal || !approxEqT(sol.Objective, 3) {
		t.Fatalf("consistent rows: status %v obj %.9g, want optimal 3", sol.Status, sol.Objective)
	}

	sol, err = build(-1).Solve() // empty row demands 0 ≤ -1
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != milp.Infeasible {
		t.Fatalf("inconsistent empty row: status %v, want infeasible", sol.Status)
	}
}

// TestPresolveCrossedIntegerBounds checks an integer variable whose domain
// contains no integer is caught by bound rounding.
func TestPresolveCrossedIntegerBounds(t *testing.T) {
	prob := milp.NewProblem(lp.Maximize)
	v := prob.LP.AddVariable(1, 0.2, 0.8, "x")
	prob.SetInteger(v)

	sol, err := prob.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != milp.Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
	if sol.Nodes != 0 {
		t.Fatalf("crossed integer bounds still solved %d nodes", sol.Nodes)
	}
}

// TestPresolveIntegerBoundRounding checks fractional bounds on integer
// variables are tightened to the enclosed integer range.
func TestPresolveIntegerBoundRounding(t *testing.T) {
	prob := milp.NewProblem(lp.Maximize)
	v := prob.LP.AddVariable(1, 0.3, 2.7, "x")
	prob.SetInteger(v)

	sol, err := prob.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != milp.Optimal || !approxEqT(sol.Objective, 2) {
		t.Fatalf("status %v obj %.9g, want optimal 2", sol.Status, sol.Objective)
	}
}
