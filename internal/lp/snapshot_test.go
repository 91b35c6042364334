package lp_test

// Basis snapshot ownership: a snapshot handed out by the model
// (Solution.Basis, Basis()) or handed in (SetBasis) must never alias the
// model's internal warm-start state, so caller-side mutation cannot corrupt
// a later solve — the invariant branch and bound's shared node snapshots
// rely on.

import (
	"math"
	"testing"

	"pop/internal/lp"
	"pop/internal/lp/gen"
)

// solveRebuilt solves a deep copy of the model's current state from scratch
// — the ground truth a mutated model must match.
func solveRebuilt(t *testing.T, m *lp.Model) *lp.Solution {
	t.Helper()
	sol, err := m.CopyProblem().Solve()
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func agree(t *testing.T, tag string, got, want *lp.Solution) {
	t.Helper()
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, rebuild %v", tag, got.Status, want.Status)
	}
	if want.Status == lp.Optimal && math.Abs(got.Objective-want.Objective) > 1e-6*(1+math.Abs(want.Objective)) {
		t.Fatalf("%s: objective %.12g, rebuild %.12g", tag, got.Objective, want.Objective)
	}
}

// scribble corrupts a basis snapshot in place.
func scribble(b *lp.Basis) {
	for i := range b.VarStatus {
		b.VarStatus[i] = lp.BasisBasic
	}
	for i := range b.SlackStatus {
		b.SlackStatus[i] = lp.BasisUpper
	}
}

// TestMutatedSnapshotCannotCorruptSolve is the basis-aliasing regression
// test: scribbling over every snapshot the model ever handed out — the
// solve's Solution.Basis, Basis(), and the caller's own copy passed to
// SetBasis — must not change any later solve's outcome, and the installed
// warm start must still engage.
func TestMutatedSnapshotCannotCorruptSolve(t *testing.T) {
	m := lp.NewModelFromProblem(gen.LB(gen.Small, 23))
	sol, err := m.Solve()
	if err != nil || sol.Status != lp.Optimal {
		t.Fatalf("root solve: %v %v", sol.Status, err)
	}
	keep := m.Basis()
	if keep == nil || sol.Basis == nil {
		t.Fatal("no snapshots after an optimal solve")
	}

	// Corrupt the returned snapshots, then re-solve a perturbed model: the
	// stored warm state must be untouched by the scribbling.
	scribble(sol.Basis)
	snap := m.Basis()
	scribble(snap)
	m.SetBounds(0, 0, 0)
	got, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	agree(t, "after scribbled returns", got, solveRebuilt(t, m))
	if got.Status == lp.Optimal && !got.WarmStarted {
		t.Fatal("warm start lost after caller-side snapshot mutation")
	}

	// Install a good snapshot, then corrupt the caller's copy afterwards:
	// clone-on-install means the solve still starts from the good statuses.
	m.SetBasis(keep)
	scribble(keep)
	m.SetBounds(0, 0, 1)
	got, err = m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	agree(t, "after scribbled install", got, solveRebuilt(t, m))
	if got.Status == lp.Optimal && !got.WarmStarted {
		t.Fatal("clone-on-install lost the warm start")
	}
}
