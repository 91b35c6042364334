package lp_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pop/internal/lp"
	"pop/internal/lp/gen"
)

// mutateRound applies one round of random in-place deltas to the model.
// kind selects the delta class: 0 rhs-only, 1 bounds-only, 2 objective,
// 3 coefficients (with occasional fill-in), 4 structural block edits.
func mutateRound(rng *rand.Rand, m *lp.Model, kind int) {
	nv, nr := m.NumVariables(), m.NumConstraints()
	switch kind {
	case 0:
		for k := 0; k < 1+rng.Intn(4); k++ {
			r := rng.Intn(nr)
			m.SetRHS(r, m.RHS(r)*(0.7+0.6*rng.Float64()))
		}
	case 1:
		for k := 0; k < 1+rng.Intn(4); k++ {
			v := rng.Intn(nv)
			lb, ub := m.Bounds(v)
			if !math.IsInf(ub, 1) {
				ub *= 0.6 + 0.8*rng.Float64()
				if ub < lb {
					ub = lb
				}
			}
			m.SetBounds(v, lb, ub)
		}
	case 2:
		for k := 0; k < 1+rng.Intn(4); k++ {
			m.SetObjectiveCoeff(rng.Intn(nv), rng.NormFloat64())
		}
	case 3:
		for k := 0; k < 1+rng.Intn(6); k++ {
			row, v := rng.Intn(nr), rng.Intn(nv)
			// Mostly perturbations of whatever is there; occasionally an
			// explicit fill-in or zero-out.
			m.SetCoeff(row, v, rng.Float64()*2)
		}
	case 4:
		switch {
		case rng.Intn(2) == 0 && nv > 8:
			at := rng.Intn(nv - 2)
			m.RemoveVariables(at, 1+rng.Intn(2))
		case nr > 4:
			m.RemoveConstraints(rng.Intn(nr-1), 1)
		}
		// And grow back: a fresh variable wired into a fresh constraint.
		v := m.InsertVariables(rng.Intn(m.NumVariables()+1), 1, rng.NormFloat64(), 0, 3)
		m.InsertConstraint(rng.Intn(m.NumConstraints()+1),
			[]int{v, rng.Intn(m.NumVariables())}, []float64{1, 1}, lp.LE, 2+rng.Float64(), "")
	}
}

// TestModelMutateResolveMatchesFreshBuild is the mutation-equivalence
// acceptance suite: over randomized delta chains on te/cluster/lb-shaped
// instances, mutate-then-resolve must match a fresh cold build+solve of the
// same state — status and objective to 1e-6 — every round, while the warm
// and dual fast paths actually engage.
func TestModelMutateResolveMatchesFreshBuild(t *testing.T) {
	chains, rounds := 4, 6
	if testing.Short() {
		chains, rounds = 2, 4
	}
	builders := map[string]func(int64) *lp.Problem{
		"te":      func(seed int64) *lp.Problem { return gen.TE(gen.Small, seed) },
		"cluster": func(seed int64) *lp.Problem { return gen.Cluster(gen.Small, seed) },
		"lb":      func(seed int64) *lp.Problem { return gen.LB(gen.Small, seed) },
	}
	warmStarts, dualSolves := 0, 0
	for family, build := range builders {
		t.Run(family, func(t *testing.T) {
			for chain := 0; chain < chains; chain++ {
				rng := rand.New(rand.NewSource(int64(100*chain + 7)))
				m := lp.NewModelFromProblem(build(int64(chain + 1)))
				if _, err := m.Solve(); err != nil {
					t.Fatal(err)
				}
				for round := 0; round < rounds; round++ {
					mutateRound(rng, m, rng.Intn(5))
					got, err := m.Solve()
					if err != nil {
						t.Fatal(err)
					}
					want, err := m.CopyProblem().Solve()
					if err != nil {
						t.Fatal(err)
					}
					if got.Status != want.Status {
						t.Fatalf("chain %d round %d: mutate status %v != rebuild %v",
							chain, round, got.Status, want.Status)
					}
					if want.Status == lp.Optimal {
						if d := math.Abs(got.Objective - want.Objective); d > 1e-6*(1+math.Abs(want.Objective)) {
							t.Fatalf("chain %d round %d: mutate objective %.12g != rebuild %.12g",
								chain, round, got.Objective, want.Objective)
						}
						if err := m.CheckFeasible(got.X, 1e-6); err != nil {
							t.Fatalf("chain %d round %d: mutated-model solution infeasible: %v",
								chain, round, err)
						}
					}
					if got.WarmStarted {
						warmStarts++
						if got.DualPivots > 0 || got.Iterations == 0 {
							dualSolves++
						}
					}
				}
			}
		})
	}
	if warmStarts == 0 {
		t.Fatal("no mutated re-solve ever warm-started; the incremental path is dead")
	}
	t.Logf("warm re-solves: %d (dual-path: %d)", warmStarts, dualSolves)
}

// TestModelRHSOnlyChainsStayOnDualPath: pure load-shift chains — the
// production regime — must ride the dual simplex, not fall back cold.
func TestModelRHSOnlyChainsStayOnDualPath(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := lp.NewModelFromProblem(gen.Cluster(gen.Small, 3))
	if _, err := m.Solve(); err != nil {
		t.Fatal(err)
	}
	warm := 0
	for round := 0; round < 8; round++ {
		mutateRound(rng, m, 0)
		got, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.CopyProblem().Solve()
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status {
			t.Fatalf("round %d: status %v != rebuild %v", round, got.Status, want.Status)
		}
		if want.Status == lp.Optimal {
			if d := math.Abs(got.Objective - want.Objective); d > 1e-6*(1+math.Abs(want.Objective)) {
				t.Fatalf("round %d: objective %.12g != rebuild %.12g", round, got.Objective, want.Objective)
			}
		}
		if got.WarmStarted {
			warm++
		}
	}
	if warm < 4 {
		t.Fatalf("only %d of 8 rhs-only re-solves warm-started", warm)
	}
}

// TestModelBlockOpsMatchManualRebuild pins the block-edit semantics:
// removing a variable/constraint block must leave exactly the LP a fresh
// build without that block produces.
func TestModelBlockOpsMatchManualRebuild(t *testing.T) {
	build := func(withMiddle bool) *lp.Problem {
		p := lp.NewProblem(lp.Maximize)
		a := p.AddVariable(1, 0, 4, "a")
		var b int
		if withMiddle {
			b = p.AddVariable(2, 0, 1, "b")
		}
		c := p.AddVariable(1, 0, 3, "c")
		if withMiddle {
			p.AddConstraint([]int{a, b}, []float64{1, 1}, lp.LE, 2, "r0")
		}
		p.AddConstraint([]int{a, c}, []float64{1, 2}, lp.LE, 5, "r1")
		return p
	}
	m := lp.NewModelFromProblem(build(true))
	if _, err := m.Solve(); err != nil {
		t.Fatal(err)
	}
	m.RemoveConstraints(0, 1) // r0
	m.RemoveVariables(1, 1)   // b
	got, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := build(false).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status || math.Abs(got.Objective-want.Objective) > 1e-9 {
		t.Fatalf("block removal: got %v %.12g, want %v %.12g",
			got.Status, got.Objective, want.Status, want.Objective)
	}

	// Insert a block back in the middle and cross-check against a fresh
	// model built in the final shape.
	v := m.InsertVariables(1, 1, 3, 0, 2)
	m.InsertConstraint(0, []int{0, v}, []float64{1, 1}, lp.LE, 3, "rx")
	got2, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want2, err := m.CopyProblem().Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got2.Status != want2.Status || math.Abs(got2.Objective-want2.Objective) > 1e-9 {
		t.Fatalf("block insert: got %v %.12g, want %v %.12g",
			got2.Status, got2.Objective, want2.Status, want2.Objective)
	}
}

// builder is the construction surface Problem and Model share.
type builder interface {
	AddVariable(c, lb, ub float64, name string) int
	AddVariables(n int, c, lb, ub float64) int
	AddConstraint(idx []int, val []float64, sense lp.Sense, rhs float64, name string) int
	SetObjectiveCoeff(v int, c float64)
	SetBounds(v int, lb, ub float64)
}

// TestModelBuilderCompatible: the same construction code against Problem
// and Model must produce the same solve.
func TestModelBuilderCompatible(t *testing.T) {
	construct := func(b builder) {
		x := b.AddVariable(3, 0, lp.Inf, "x")
		y := b.AddVariables(2, 1, 0, 2)
		b.AddConstraint([]int{x, y}, []float64{1, 1}, lp.LE, 4, "cap")
		b.AddConstraint([]int{x, y + 1}, []float64{2, 1}, lp.LE, 6, "cap2")
		b.SetObjectiveCoeff(y, 2)
		b.SetBounds(x, 0, 5)
	}
	p := lp.NewProblem(lp.Maximize)
	construct(p)
	m := lp.NewModel(lp.Maximize)
	construct(m)
	ps, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if ps.Status != ms.Status || math.Abs(ps.Objective-ms.Objective) > 1e-12 {
		t.Fatalf("Problem %v %.12g vs Model %v %.12g", ps.Status, ps.Objective, ms.Status, ms.Objective)
	}
}

// TestModelDualVsPrimalWarmAgreement: the same rhs-perturbed re-solve taken
// through the dual path and the primal warm path must land on the same
// answer.
func TestModelDualVsPrimalWarmAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 12; trial++ {
		base := gen.LB(gen.Small, int64(trial+1))
		sol, err := base.Clone().Solve()
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != lp.Optimal {
			continue
		}
		mdl := lp.NewModelFromProblem(base)
		nr := mdl.NumConstraints()
		for k := 0; k < 5; k++ {
			r := rng.Intn(nr)
			f := 0.8 + 0.4*rng.Float64()
			mdl.SetRHS(r, mdl.RHS(r)*f)
		}
		pertP := mdl.CopyProblem()
		dual, err := pertP.Clone().SolveWithOptions(lp.Options{WarmBasis: sol.Basis, Dual: true})
		if err != nil {
			t.Fatal(err)
		}
		primal, err := pertP.Clone().SolveWithOptions(lp.Options{WarmBasis: sol.Basis})
		if err != nil {
			t.Fatal(err)
		}
		if dual.Status != primal.Status {
			t.Fatalf("trial %d: dual %v != primal warm %v", trial, dual.Status, primal.Status)
		}
		if dual.Status == lp.Optimal {
			if d := math.Abs(dual.Objective - primal.Objective); d > 1e-6*(1+math.Abs(primal.Objective)) {
				t.Fatalf("trial %d: dual %.12g != primal warm %.12g", trial, dual.Objective, primal.Objective)
			}
		}
	}
}

// TestModelSetCoeffsMatchesPerEntry: the bulk row setter must be
// observationally identical to the per-entry loop — including merged
// duplicates, fill-ins, and zero-outs — and classify dirt the same way.
func TestModelSetCoeffsMatchesPerEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	build := func() *lp.Model {
		m := lp.NewModel(lp.Maximize)
		m.AddVariables(6, 1, 0, 3)
		// A row with a duplicate index (merged semantics) and a gap (var 4
		// absent, so setting it is a fill-in).
		m.AddConstraint([]int{0, 1, 2, 1, 5}, []float64{1, 2, 3, 4, 5}, lp.LE, 10, "r0")
		m.AddConstraint([]int{0, 3}, []float64{1, 1}, lp.GE, 1, "r1")
		return m
	}
	for trial := 0; trial < 30; trial++ {
		idx := []int{0, 1, 2, 4, 5}
		val := make([]float64, len(idx))
		for t := range val {
			switch rng.Intn(3) {
			case 0:
				val[t] = 0
			default:
				val[t] = rng.NormFloat64() * 3
			}
		}
		bulk, loop := build(), build()
		if _, err := bulk.Solve(); err != nil {
			t.Fatal(err)
		}
		if _, err := loop.Solve(); err != nil {
			t.Fatal(err)
		}
		bulk.SetCoeffs(0, idx, val)
		for t2, v := range idx {
			loop.SetCoeff(0, v, val[t2])
		}
		bs, err := bulk.Solve()
		if err != nil {
			t.Fatal(err)
		}
		ls, err := loop.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if bs.Status != ls.Status || math.Abs(bs.Objective-ls.Objective) > 1e-9 {
			t.Fatalf("trial %d: bulk %v %.12g != per-entry %v %.12g",
				trial, bs.Status, bs.Objective, ls.Status, ls.Objective)
		}
		ws, err := bulk.CopyProblem().Solve()
		if err != nil {
			t.Fatal(err)
		}
		if bs.Status != ws.Status || (bs.Status == lp.Optimal && math.Abs(bs.Objective-ws.Objective) > 1e-9) {
			t.Fatalf("trial %d: bulk %v %.12g != rebuild %v %.12g",
				trial, bs.Status, bs.Objective, ws.Status, ws.Objective)
		}
	}
	// Unchanged values must not dirty the model out of the dual path.
	m := build()
	if _, err := m.Solve(); err != nil {
		t.Fatal(err)
	}
	m.SetCoeffs(1, []int{0, 3}, []float64{1, 1})
	m.SetRHS(1, 0.5)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !sol.WarmStarted {
		t.Fatal("no-op SetCoeffs plus rhs change should have stayed on the warm/dual path")
	}

	// Wide rows take the one-pass path (len > 32); it must agree with the
	// per-entry loop there too, fill-ins and zero-outs included.
	const wide = 48
	buildWide := func() *lp.Model {
		m := lp.NewModel(lp.Minimize)
		m.AddVariables(wide, 1, 0, 2)
		idx := make([]int, 0, wide)
		val := make([]float64, 0, wide)
		for v := 0; v < wide; v += 2 { // gaps: odd vars are fill-ins later
			idx = append(idx, v)
			val = append(val, 1)
		}
		m.AddConstraint(idx, val, lp.GE, 5, "widerow")
		return m
	}
	for trial := 0; trial < 10; trial++ {
		idx := make([]int, wide)
		val := make([]float64, wide)
		for v := 0; v < wide; v++ {
			idx[v] = v
			val[v] = float64(rng.Intn(4)) // includes zero-outs
		}
		bulk, loop := buildWide(), buildWide()
		if _, err := bulk.Solve(); err != nil {
			t.Fatal(err)
		}
		if _, err := loop.Solve(); err != nil {
			t.Fatal(err)
		}
		bulk.SetCoeffs(0, idx, val)
		for t2, v := range idx {
			loop.SetCoeff(0, v, val[t2])
		}
		bs, err := bulk.Solve()
		if err != nil {
			t.Fatal(err)
		}
		ls, err := loop.Solve()
		if err != nil {
			t.Fatal(err)
		}
		ws, err := bulk.CopyProblem().Solve()
		if err != nil {
			t.Fatal(err)
		}
		if bs.Status != ls.Status || bs.Status != ws.Status {
			t.Fatalf("wide trial %d: statuses diverge: bulk %v per-entry %v rebuild %v",
				trial, bs.Status, ls.Status, ws.Status)
		}
		if bs.Status == lp.Optimal &&
			(math.Abs(bs.Objective-ls.Objective) > 1e-9 || math.Abs(bs.Objective-ws.Objective) > 1e-9) {
			t.Fatalf("wide trial %d: objectives diverge: bulk %.12g per-entry %.12g rebuild %.12g",
				trial, bs.Objective, ls.Objective, ws.Objective)
		}
	}
}

// TestModelSetBasisSearchTreePattern exercises the snapshot/restore cycle a
// branch-and-bound search runs: snapshot the basis after a solve, tighten
// bounds and re-solve down one path, then jump back by re-installing the
// snapshot under a sibling's bounds. Every re-solve must match a cold
// rebuild, and the bound-only regime must keep the dual path engaged.
func TestModelSetBasisSearchTreePattern(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := lp.NewModelFromProblem(gen.LB(gen.Small, 5))
	root, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if root.Status != lp.Optimal {
		t.Fatalf("root status %v", root.Status)
	}
	snapshot := m.Basis()
	if snapshot == nil {
		t.Fatal("no basis stored after an optimal solve")
	}

	check := func(tag string) *lp.Solution {
		t.Helper()
		got, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.CopyProblem().Solve()
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status {
			t.Fatalf("%s: status %v != rebuild %v", tag, got.Status, want.Status)
		}
		if want.Status == lp.Optimal && math.Abs(got.Objective-want.Objective) > 1e-6*(1+math.Abs(want.Objective)) {
			t.Fatalf("%s: objective %.12g != rebuild %.12g", tag, got.Objective, want.Objective)
		}
		return got
	}

	// Plunge: tighten a few variables to an integer floor/ceiling, dual
	// re-solving from the model's own basis chain.
	nv := m.NumVariables()
	dualSeen := false
	touched := []int{}
	for step := 0; step < 4; step++ {
		v := rng.Intn(nv)
		m.SetBounds(v, 0, 0)
		touched = append(touched, v)
		sol := check("plunge")
		if sol.Status == lp.Optimal && sol.DualPivots > 0 {
			dualSeen = true
		}
	}

	// Jump: restore base bounds, install the root snapshot, and tighten a
	// different variable — the best-bound-jump shape.
	for _, v := range touched {
		m.SetBounds(v, 0, 1)
	}
	m.SetBasis(snapshot)
	if got := m.Basis(); got == nil || len(got.VarStatus) != len(snapshot.VarStatus) ||
		!slices.Equal(got.VarStatus, snapshot.VarStatus) || !slices.Equal(got.SlackStatus, snapshot.SlackStatus) {
		t.Fatal("Basis() does not return the installed snapshot's statuses")
	}
	m.SetBounds((touched[0]+1)%nv, 1, 1)
	jump := check("jump")
	if jump.Status == lp.Optimal && !jump.WarmStarted {
		t.Fatal("best-bound jump did not warm-start from the installed snapshot")
	}
	if !dualSeen && jump.DualPivots == 0 {
		t.Fatal("dual simplex never engaged across a bound-only search pattern")
	}

	// SetBasis(nil) behaves as ForgetBasis: the next solve runs cold.
	m.SetBasis(nil)
	cold := check("forgotten")
	if cold.WarmStarted {
		t.Fatal("solve after SetBasis(nil) still warm-started")
	}
}
