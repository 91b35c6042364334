package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// newSimplex standardizes p and returns a solver over it. The tests keep the
// solver — and so its workspace, never released — past solve() to inspect
// the state it ended in.
func newSimplex(p *Problem, opts Options) *simplex {
	return newSimplexStd(p.standardize(nil), opts)
}

// solvedLU runs a solve to completion and hands back the simplex with its
// final sparse factorization (which has seen refactorizations and
// Forrest–Tomlin updates along the way).
func solvedLU(t *testing.T, rng *rand.Rand, m, n int, opts Options) (*simplex, *luFactor) {
	t.Helper()
	p := randomFeasibleLP(rng, m, n)
	s := newSimplex(p, opts)
	sol := s.solve()
	if sol.Status != Optimal {
		t.Fatalf("setup solve status %v", sol.Status)
	}
	f, ok := s.bas.(*luFactor)
	if !ok {
		t.Fatalf("backend fell back to dense during a benign solve")
	}
	return s, f
}

// mulBasis computes r = B·w for the current basis (w in position space,
// r in row space).
func mulBasis(f *luFactor, w []float64) []float64 {
	r := make([]float64, f.m)
	for pos := 0; pos < f.m; pos++ {
		if w[pos] == 0 {
			continue
		}
		ind, val := f.basisCol(pos)
		for t, i := range ind {
			r[i] += val[t] * w[pos]
		}
	}
	return r
}

// mulBasisT computes c = Bᵀ·y (y in row space, c in position space).
func mulBasisT(f *luFactor, y []float64) []float64 {
	c := make([]float64, f.m)
	for pos := 0; pos < f.m; pos++ {
		ind, val := f.basisCol(pos)
		sum := 0.0
		for t, i := range ind {
			sum += val[t] * y[i]
		}
		c[pos] = sum
	}
	return c
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// TestLUFtranRoundTrip: B·(B⁻¹ a_q) must reproduce a_q for structural,
// slack, and artificial columns, through both the fresh factors and the
// accumulated updates.
func TestLUFtranRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		// A short cadence, so the final factorization carries updates.
		s, f := solvedLU(t, rng, 10+rng.Intn(10), 16+rng.Intn(16), Options{reinvertEvery: 7})
		w := make([]float64, s.m)
		for q := 0; q < s.ncols+s.m; q += 1 + rng.Intn(3) {
			f.ftranCol(q, w)
			got := mulBasis(f, w)
			want := make([]float64, s.m)
			if q >= s.artStart {
				want[q-s.artStart] = s.artSign[q-s.artStart]
			} else {
				ind, val := s.std.col(q)
				for t2, i := range ind {
					want[i] = val[t2]
				}
			}
			if d := maxAbsDiff(got, want); d > 1e-8 {
				t.Fatalf("trial %d col %d: ftran round-trip residual %g", trial, q, d)
			}
		}
	}
}

// TestLUBtranRoundTrip: Bᵀ·(B⁻ᵀ c) must reproduce c for the phase cost
// vector and for unit vectors (the dual simplex pivot-row solve).
func TestLUBtranRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 8; trial++ {
		s, f := solvedLU(t, rng, 10+rng.Intn(10), 16+rng.Intn(16), Options{reinvertEvery: 7})
		y := make([]float64, s.m)
		f.btranCost(y)
		got := mulBasisT(f, y)
		want := make([]float64, s.m)
		for i := 0; i < s.m; i++ {
			want[i] = s.cost[s.basis[i]]
		}
		if d := maxAbsDiff(got, want); d > 1e-8 {
			t.Fatalf("trial %d: btranCost round-trip residual %g", trial, d)
		}
		z := make([]float64, s.m)
		for r := 0; r < s.m; r++ {
			f.btranUnit(r, z)
			got := mulBasisT(f, z)
			want := make([]float64, s.m)
			want[r] = 1
			if d := maxAbsDiff(got, want); d > 1e-8 {
				t.Fatalf("trial %d: btranUnit(%d) round-trip residual %g", trial, r, d)
			}
		}
	}
}

// TestLURefactorResidualInvariant: refactorizing must not move the basic
// solution — the updated factorization and a fresh LU agree on
// x_B = B⁻¹(b - N x_N) to tight tolerance, and the refactored basis
// reproduces the right-hand side.
func TestLURefactorResidualInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		s, f := solvedLU(t, rng, 12+rng.Intn(8), 20+rng.Intn(12), Options{reinvertEvery: 9})
		xbBefore := make([]float64, s.m)
		for i, j := range s.basis {
			xbBefore[i] = s.x[j]
		}
		if !s.reinvert() {
			t.Fatalf("trial %d: refactor failed on a solved basis", trial)
		}
		if len(f.rowEtas) != 0 {
			t.Fatalf("trial %d: refactor left %d row etas", trial, len(f.rowEtas))
		}
		xbAfter := make([]float64, s.m)
		for i, j := range s.basis {
			xbAfter[i] = s.x[j]
		}
		if d := maxAbsDiff(xbBefore, xbAfter); d > 1e-7 {
			t.Fatalf("trial %d: refactor moved basics by %g", trial, d)
		}
		// Residual of the linear system the basics claim to solve.
		r := make([]float64, s.m)
		copy(r, s.std.b)
		for j := 0; j < s.ncols; j++ {
			if s.status[j] == statBasic || s.x[j] == 0 {
				continue
			}
			ind, val := s.std.col(j)
			for t2, i := range ind {
				r[i] -= val[t2] * s.x[j]
			}
		}
		bx := mulBasis(f, xbAfter)
		if d := maxAbsDiff(bx, r); d > 1e-7 {
			t.Fatalf("trial %d: ‖B·x_B - (b - N·x_N)‖∞ = %g", trial, d)
		}
	}
}

// TestLUSingularBasisFailsAndFallsBack: a structurally singular basis must
// be rejected by the LU factorization, and reinvert must at least attempt
// the dense fallback path.
func TestLUSingularBasisFailsAndFallsBack(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable(1, 0, 10, "x")
	y := p.AddVariable(1, 0, 10, "y")
	p.AddConstraint([]int{x, y}, []float64{1, 1}, LE, 6, "")
	p.AddConstraint([]int{x, y}, []float64{2, 2}, LE, 12, "")
	s := newSimplex(p, Options{}.withDefaults(2, 4))
	s.initPhase1()
	// Force the same structural column into both basis positions.
	s.basis[0], s.basis[1] = x, x
	f := s.bas.(*luFactor)
	if f.refactor() {
		t.Fatal("LU accepted a singular basis")
	}
	if s.reinvert() {
		t.Fatal("reinvert succeeded on a singular basis")
	}
	if !s.fellBack {
		t.Fatal("reinvert did not attempt the dense fallback")
	}
	if _, dense := s.bas.(*denseFactor); !dense {
		t.Fatal("backend not switched to dense after LU failure")
	}
}

// TestLUReinvertCadenceAgrees: aggressive refactorization cadence must not
// change results.
func TestLUReinvertCadenceAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		p1 := randomFeasibleLP(rng, 12, 24)
		p2 := cloneProblem(p1)
		s1, err := p1.SolveWithOptions(Options{})
		if err != nil {
			t.Fatal(err)
		}
		s2, err := p2.SolveWithOptions(Options{reinvertEvery: 3})
		if err != nil {
			t.Fatal(err)
		}
		if s1.Status != s2.Status {
			t.Fatalf("trial %d: status %v vs %v", trial, s1.Status, s2.Status)
		}
		if s1.Status == Optimal && !approxEq(s1.Objective, s2.Objective, 1e-5) {
			t.Fatalf("trial %d: obj %.10g vs %.10g", trial, s1.Objective, s2.Objective)
		}
	}
}

// TestLUFillTriggersRefactor: the fill-based refactor trigger must fire once
// the Forrest–Tomlin U outgrows its fill-growth bound. The updates are real
// basis exchanges: each entering column is solved by ftranCol, whose saved
// spike update installs, and leaves at its largest pivot.
func TestLUFillTriggersRefactor(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s, f := solvedLU(t, rng, 8, 14, Options{})
	if f.wantRefactor() {
		t.Fatal("fresh factorization already wants refactor")
	}
	w := make([]float64, s.m)
	fills := s.fillRefactors
	for i := 0; !f.wantRefactor(); i++ {
		if i > 100*s.m {
			t.Fatal("fill trigger never fired")
		}
		q := rng.Intn(s.ncols)
		if slices.Contains(s.basis, q) {
			continue
		}
		f.ftranCol(q, w)
		leave, best := -1, 0.1
		for p, wp := range w {
			if a := math.Abs(wp); a > best {
				leave, best = p, a
			}
		}
		if leave < 0 {
			continue
		}
		if !f.update(leave, w) {
			t.Fatalf("update rejected pivot %d (column %d, |w| %g)", i, q, best)
		}
		s.basis[leave] = q
	}
	if s.fillRefactors == fills {
		t.Fatal("the trigger fired on drift, not on fill")
	}
}
