package lp_test

import (
	"math"
	"math/rand"
	"testing"

	"pop/internal/lp"
	"pop/internal/obs"
)

func approxEqF(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

// hostileFixture builds a random feasible maximize LP as a Model, solves it
// once (storing a basis and its duals), and returns the model with an
// observer registry to read the hostile-drop counter from.
func hostileFixture(t *testing.T, seed int64) (*lp.Model, *obs.Observer) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := lp.NewModel(lp.Maximize)
	n := 60
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		x0[j] = rng.Float64() * 2
		m.AddVariable(rng.NormFloat64(), 0, 5, "")
	}
	for i := 0; i < 20; i++ {
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
		if len(idx) > 0 {
			m.AddConstraint(idx, val, lp.LE, rhs+0.1, "")
		}
	}
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	sol, err := m.SolveWithOptions(lp.Options{Obs: o})
	if err != nil || sol.Status != lp.Optimal {
		t.Fatalf("setup solve: err=%v status=%v", err, sol.Status)
	}
	if !m.HasBasis() {
		t.Fatal("optimal solve did not store a basis")
	}
	return m, o
}

func hostileDrops(o *obs.Observer) int64 {
	return o.Counter("pop_lp_warm_hostile_drops_total", "").Value()
}

// TestWarmHostileDropsOnGlobalRotation: a same-shape rebuild that rotates
// the whole optimality picture — here every objective coefficient replaced
// at once, the shape of an equal-share denominator shift in the online
// engines — must trip the model's hostile-refresh sampler: the stale basis
// is dropped (cold re-solve, counter booked) and the outcome still matches
// a fresh build solved cold.
func TestWarmHostileDropsOnGlobalRotation(t *testing.T) {
	m, o := hostileFixture(t, 61)
	m.RebuildEdited(func(e *lp.Edit) {
		for j := 0; j < m.NumVariables(); j++ {
			e.Objective(j, 1000*float64(j+1))
		}
	})
	sol, err := m.SolveWithOptions(lp.Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if got := hostileDrops(o); got != 1 {
		t.Fatalf("hostile drops = %d, want 1", got)
	}
	if sol.WarmStarted {
		t.Fatal("solve warm-started from a basis the sampler should have dropped")
	}
	cold, err := m.CopyProblem().Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != cold.Status {
		t.Fatalf("status %v vs cold %v", sol.Status, cold.Status)
	}
	if sol.Status == lp.Optimal && !approxEqF(sol.Objective, cold.Objective, 1e-6) {
		t.Fatalf("obj %.10g vs cold %.10g", sol.Objective, cold.Objective)
	}
}

// TestWarmHostileKeepsLocalDeltas: an ordinary local delta — one objective
// coefficient nudged — must NOT trip the sampler; the basis survives and the
// warm start goes through.
func TestWarmHostileKeepsLocalDeltas(t *testing.T) {
	m, o := hostileFixture(t, 67)
	m.RebuildEdited(func(e *lp.Edit) { e.Objective(3, 0.25) })
	sol, err := m.SolveWithOptions(lp.Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if got := hostileDrops(o); got != 0 {
		t.Fatalf("hostile drops = %d on a local delta, want 0", got)
	}
	if sol.Status == lp.Optimal && !sol.WarmStarted {
		t.Fatal("local coefficient delta lost its warm start")
	}
}

// TestWarmHostileDropsOnBroadRowChurn exercises the churn-volume signal:
// rewriting existing coefficients across a quarter or more of the rows must
// drop the basis even when the edits are too small to flip reduced-cost
// signs (the shape of broad per-member throughput churn in the pair
// layout). The fixture builds rows with known entries so every edit hits a
// stored coefficient.
func TestWarmHostileDropsOnBroadRowChurn(t *testing.T) {
	m := lp.NewModel(lp.Maximize)
	n, rows := 40, 24
	for j := 0; j < n; j++ {
		m.AddVariable(1+0.01*float64(j), 0, 3, "")
	}
	for i := 0; i < rows; i++ {
		idx := []int{i % n, (i + 7) % n, (i + 19) % n}
		val := []float64{1, 2, 1.5}
		m.AddConstraint(idx, val, lp.LE, 10, "")
	}
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	sol, err := m.SolveWithOptions(lp.Options{Obs: o})
	if err != nil || sol.Status != lp.Optimal {
		t.Fatalf("setup solve: err=%v status=%v", err, sol.Status)
	}
	// Nudge one stored entry in half the rows: 12 touched of 24 clears both
	// the >=8 floor and the quarter-of-rows bar, while the 1% perturbation
	// leaves the reduced-cost sample quiet.
	m.RebuildEdited(func(e *lp.Edit) {
		for i := 0; i < 12; i++ {
			e.Coeff(i, i%n, 1.01)
		}
	})
	sol, err = m.SolveWithOptions(lp.Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if got := hostileDrops(o); got != 1 {
		t.Fatalf("hostile drops = %d, want 1", got)
	}
	if sol.WarmStarted {
		t.Fatal("solve warm-started from a basis the churn signal should have dropped")
	}
	cold, err := m.CopyProblem().Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != cold.Status {
		t.Fatalf("status %v vs cold %v", sol.Status, cold.Status)
	}
	if sol.Status == lp.Optimal && !approxEqF(sol.Objective, cold.Objective, 1e-6) {
		t.Fatalf("obj %.10g vs cold %.10g", sol.Objective, cold.Objective)
	}
}

// TestWarmHostileNeverChangesOutcomes: over randomized mutate-and-resolve
// chains mixing local and global coefficient rebuilds, the sampler's
// keep-or-drop decisions must be invisible in outcomes — every re-solve
// matches the fresh-build cold solve.
func TestWarmHostileNeverChangesOutcomes(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		m, o := hostileFixture(t, 100+seed)
		rng := rand.New(rand.NewSource(200 + seed))
		for step := 0; step < 6; step++ {
			m.RebuildEdited(func(e *lp.Edit) {
				if rng.Float64() < 0.3 {
					scale := 1 + 50*rng.Float64()
					for j := 0; j < m.NumVariables(); j++ {
						e.Objective(j, scale*rng.NormFloat64())
					}
				} else {
					e.Objective(rng.Intn(m.NumVariables()), rng.NormFloat64())
				}
			})
			sol, err := m.SolveWithOptions(lp.Options{Obs: o})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := m.CopyProblem().Solve()
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != cold.Status {
				t.Fatalf("seed %d step %d: status %v vs cold %v", seed, step, sol.Status, cold.Status)
			}
			if sol.Status == lp.Optimal && !approxEqF(sol.Objective, cold.Objective, 1e-6) {
				t.Fatalf("seed %d step %d: obj %.10g vs cold %.10g",
					seed, step, sol.Objective, cold.Objective)
			}
		}
	}
}
