package lp_test

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pop/internal/lp"
	"pop/internal/lp/gen"
	"pop/internal/obs"
)

// mutateRound applies one round of random deltas to the model. kind
// selects the delta class: 0 rhs-only, 2 objective and 3 coefficients (with
// occasional fill-in), each a same-shape rebuild after Reset; 1 bounds-only,
// in place; 4 structural: a rebuild after Reset without one row and one
// variable, or appends alone.
func mutateRound(rng *rand.Rand, m *lp.Model, kind int) {
	nv, nr := m.NumVariables(), m.NumConstraints()
	switch kind {
	case 0:
		m.RebuildEdited(func(e *lp.Edit) {
			for k := 0; k < 1+rng.Intn(4); k++ {
				r := rng.Intn(nr)
				e.RHS(r, m.RHS(r)*(0.7+0.6*rng.Float64()))
			}
		})
	case 1:
		for k := 0; k < 1+rng.Intn(4); k++ {
			v := rng.Intn(nv)
			lb, ub := m.CopyProblem().Bounds(v)
			if !math.IsInf(ub, 1) {
				ub *= 0.6 + 0.8*rng.Float64()
				if ub < lb {
					ub = lb
				}
			}
			m.SetBounds(v, lb, ub)
		}
	case 2:
		m.RebuildEdited(func(e *lp.Edit) {
			for k := 0; k < 1+rng.Intn(4); k++ {
				e.Objective(rng.Intn(nv), rng.NormFloat64())
			}
		})
	case 3:
		m.RebuildEdited(func(e *lp.Edit) {
			for k := 0; k < 1+rng.Intn(6); k++ {
				row, v := rng.Intn(nr), rng.Intn(nv)
				// Mostly perturbations of whatever is there; occasionally an
				// explicit fill-in or zero-out.
				e.Coeff(row, v, rng.Float64()*2)
			}
		})
	case 4:
		if rng.Intn(2) == 0 && nv > 8 && nr > 4 {
			m.RebuildWithout(rng.Intn(nr), rng.Intn(nv))
		}
		// And grow: a fresh variable wired into a fresh constraint.
		v := m.AddVariable(rng.NormFloat64(), 0, 3, "")
		m.AddConstraint([]int{v, rng.Intn(m.NumVariables())}, []float64{1, 1}, lp.LE, 2+rng.Float64(), "")
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
				if _, err := m.SolveWithOptions(lp.Options{}); err != nil {
					t.Fatal(err)
				}
				for round := 0; round < rounds; round++ {
					mutateRound(rng, m, rng.Intn(5))
					got, err := m.SolveWithOptions(lp.Options{})
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
						if err := m.CopyProblem().CheckFeasible(got.X, 1e-6); err != nil {
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
	if _, err := m.SolveWithOptions(lp.Options{}); err != nil {
		t.Fatal(err)
	}
	warm := 0
	for round := 0; round < 8; round++ {
		mutateRound(rng, m, 0)
		got, err := m.SolveWithOptions(lp.Options{})
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

// TestModelBlockOpsMatchManualRebuild pins the rebuild semantics: a model
// Reset and rebuilt without a variable/constraint block must hold exactly
// the LP a fresh build without that block holds — the same problem, not
// just the same solve, so no row shares storage with a row Reset let go —
// and a block appended afterwards solves as a fresh build of the result.
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
	if _, err := m.SolveWithOptions(lp.Options{}); err != nil {
		t.Fatal(err)
	}
	m.RebuildWithout(0, 1) // r0 and b
	if got, want := m.CopyProblem(), build(false).Clone(); !reflect.DeepEqual(got, want) {
		t.Fatalf("rebuild without the block: %+v, fresh build %+v", got, want)
	}
	got, err := m.SolveWithOptions(lp.Options{})
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

	// Append a block and cross-check against a fresh model built in the
	// final shape.
	v := m.AddVariable(3, 0, 2, "")
	m.AddConstraint([]int{0, v}, []float64{1, 1}, lp.LE, 3, "rx")
	got2, err := m.SolveWithOptions(lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want2, err := m.CopyProblem().Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got2.Status != want2.Status || math.Abs(got2.Objective-want2.Objective) > 1e-9 {
		t.Fatalf("block append: got %v %.12g, want %v %.12g",
			got2.Status, got2.Objective, want2.Status, want2.Objective)
	}
}

// builder is the construction surface Problem and Model share.
type builder interface {
	AddVariable(c, lb, ub float64, name string) int
	AddVariables(n int, c, lb, ub float64) int
	AddConstraint(idx []int, val []float64, sense lp.Sense, rhs float64, name string) int
	SetBounds(v int, lb, ub float64)
}

// TestModelBuilderCompatible: the same construction code against Problem
// and Model must produce the same solve.
func TestModelBuilderCompatible(t *testing.T) {
	construct := func(b builder) {
		x := b.AddVariable(3, 0, lp.Inf, "x")
		y := b.AddVariable(2, 0, 2, "y")
		z := b.AddVariables(2, 1, 0, 2)
		b.AddConstraint([]int{x, y, z + 1}, []float64{1, 1, 1}, lp.LE, 4, "cap")
		b.AddConstraint([]int{x, z}, []float64{2, 1}, lp.LE, 6, "cap2")
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
	ms, err := m.SolveWithOptions(lp.Options{})
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
		mdl.RebuildEdited(func(e *lp.Edit) {
			for k := 0; k < 5; k++ {
				r := rng.Intn(nr)
				f := 0.8 + 0.4*rng.Float64()
				e.RHS(r, mdl.RHS(r)*f)
			}
		})
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

// TestModelSetBasisSearchTreePattern exercises the snapshot/restore cycle a
// branch-and-bound search runs: snapshot the basis after a solve, tighten
// bounds and re-solve down one path, then jump back by re-installing the
// snapshot under a sibling's bounds. Every re-solve must match a cold
// rebuild, and the bound-only regime must keep the dual path engaged.
func TestModelSetBasisSearchTreePattern(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := lp.NewModelFromProblem(gen.LB(gen.Small, 5))
	root, err := m.SolveWithOptions(lp.Options{})
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
		got, err := m.SolveWithOptions(lp.Options{})
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

// classLP is a 16-row LP over 12 variables (13 with extra) in a builder,
// with knobs for each delta class a rebuild can carry: rhs scales the
// right-hand sides of the even rows, ub every upper bound, obj is added to
// variable 0's objective coefficient, coef scales the first entry of each
// of the first coefRows rows, and extra adds a variable to every row.
type classLP struct {
	rhs, ub, obj, coef float64
	coefRows           int
	extra              bool
}

func (c classLP) build(b builder) {
	n := 12
	if c.extra {
		n++
	}
	for j := 0; j < n; j++ {
		obj := float64(1 + j%4)
		if j == 0 {
			obj += c.obj
		}
		b.AddVariable(obj, 0, c.ub*float64(2+j%3), "")
	}
	for i := 0; i < 16; i++ {
		var idx []int
		var val []float64
		for j := 0; j < n; j++ {
			if (i+j)%3 != 0 || j == 12 {
				a := float64(1 + (7*i+3*j)%5)
				if len(idx) == 0 && i < c.coefRows {
					a *= c.coef
				}
				idx, val = append(idx, j), append(val, a)
			}
		}
		rhs := float64(6 + i%5)
		if i%2 == 0 {
			rhs *= c.rhs
		}
		b.AddConstraint(idx, val, lp.LE, rhs, "")
	}
}

// TestModelRebuildClassification: a model Reset and built again classifies
// the rebuild against the basis Reset kept — the dual simplex for
// rhs/bound-only deltas, the primal warm path for value deltas, a drop on
// broad row churn, a cold start for another shape unless SetBasis installs
// a basis for it — a model appended to after a solve holds no basis, and
// every class solves as a fresh build does cold.
func TestModelRebuildClassification(t *testing.T) {
	base := classLP{rhs: 1, ub: 1, coef: 1}
	with := func(f func(*classLP)) *classLP { c := base; f(&c); return &c }
	appendOne := func(b builder) {
		j := b.AddVariable(5, 0, 2, "")
		b.AddConstraint([]int{0, j}, []float64{1, 1}, lp.LE, 3, "")
	}
	cases := []struct {
		name     string
		next     *classLP                          // the rebuild after Reset; nil keeps the solved model
		after    func(m *lp.Model, prev *lp.Basis) // between the rebuild and the solve
		hasBasis bool
		check    func(sol *lp.Solution, drops int64) string
	}{
		{"identical", &base, nil, true, func(sol *lp.Solution, _ int64) string {
			if !sol.WarmStarted || sol.Iterations != 0 {
				return "want a warm start with 0 pivots"
			}
			return ""
		}},
		{"rhs", with(func(c *classLP) { c.rhs = 0.5 }), nil, true, dualOnly},
		{"bounds", with(func(c *classLP) { c.ub = 0.25 }), nil, true, dualOnly},
		{"objective", with(func(c *classLP) { c.obj = 3 }), nil, true, primalWarm},
		{"matrix", with(func(c *classLP) { c.coefRows, c.coef = 1, 4 }), nil, true, primalWarm},
		{"broad-churn", with(func(c *classLP) { c.coefRows, c.coef = 8, 1.01 }), nil, true, func(sol *lp.Solution, drops int64) string {
			if drops != 1 || sol.WarmStarted {
				return "want the basis dropped as warm-hostile"
			}
			return ""
		}},
		{"other-shape", with(func(c *classLP) { c.extra = true }), nil, false, cold},
		{"other-shape+SetBasis", with(func(c *classLP) { c.extra = true }), func(m *lp.Model, prev *lp.Basis) {
			m.SetBasis(&lp.Basis{
				VarStatus:   append(slices.Clone(prev.VarStatus), lp.BasisLower),
				SlackStatus: prev.SlackStatus,
			})
		}, true, primalWarm},
		{"ForgetBasis", &base, func(m *lp.Model, _ *lp.Basis) { m.ForgetBasis() }, false, cold},
		{"append-after-solve", nil, func(m *lp.Model, _ *lp.Basis) { appendOne(m) }, false, cold},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := lp.NewModel(lp.Maximize)
			base.build(m)
			o := &obs.Observer{Metrics: obs.NewRegistry()}
			prev, err := m.SolveWithOptions(lp.Options{Obs: o})
			if err != nil || prev.Status != lp.Optimal || prev.Iterations == 0 {
				t.Fatalf("first solve: %v, %d pivots, %v", prev.Status, prev.Iterations, err)
			}
			if tc.next != nil {
				m.Reset()
				tc.next.build(m)
			}
			if tc.after != nil {
				tc.after(m, prev.Basis)
			}
			if got := m.HasBasis(); got != tc.hasBasis {
				t.Fatalf("HasBasis before the solve = %v, want %v", got, tc.hasBasis)
			}
			sol, err := m.SolveWithOptions(lp.Options{Obs: o})
			if err != nil {
				t.Fatal(err)
			}
			p := lp.NewProblem(lp.Maximize)
			if tc.next != nil {
				tc.next.build(p)
			} else {
				base.build(p)
				appendOne(p)
			}
			want, err := p.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != want.Status || math.Abs(sol.Objective-want.Objective) > 1e-9 {
				t.Fatalf("rebuild %v %.12g, fresh cold build %v %.12g", sol.Status, sol.Objective, want.Status, want.Objective)
			}
			t.Logf("warm %v, %d pivots (%d dual)", sol.WarmStarted, sol.Iterations, sol.DualPivots)
			if msg := tc.check(sol, hostileDrops(o)); msg != "" {
				t.Fatalf("%s: warm %v, %d pivots, %d dual, %d hostile drops", msg,
					sol.WarmStarted, sol.Iterations, sol.DualPivots, hostileDrops(o))
			}
		})
	}
}

func dualOnly(sol *lp.Solution, _ int64) string {
	if !sol.WarmStarted || sol.DualPivots == 0 || sol.Iterations != sol.DualPivots {
		return "want dual pivots only"
	}
	return ""
}

func primalWarm(sol *lp.Solution, drops int64) string {
	if !sol.WarmStarted || sol.DualPivots != 0 || drops != 0 {
		return "want the primal warm path"
	}
	return ""
}

func cold(sol *lp.Solution, _ int64) string {
	if sol.WarmStarted {
		return "want a cold start"
	}
	return ""
}
