package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func sameEntries(a, b []luEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].idx != b[i].idx || math.Float64bits(a[i].val) != math.Float64bits(b[i].val) {
			return false
		}
	}
	return true
}

// diffFactors reports the first field in which two successful
// factorizations of the same basis differ, bit for bit.
func diffFactors(got, want *luFactor) error {
	for t := 0; t < want.m; t++ {
		switch {
		case got.pr[t] != want.pr[t]:
			return fmt.Errorf("pr[%d] = %d, want %d", t, got.pr[t], want.pr[t])
		case got.cperm[t] != want.cperm[t]:
			return fmt.Errorf("cperm[%d] = %d, want %d", t, got.cperm[t], want.cperm[t])
		case math.Float64bits(got.udiag[t]) != math.Float64bits(want.udiag[t]):
			return fmt.Errorf("udiag[%d] = %v, want %v", t, got.udiag[t], want.udiag[t])
		case !sameEntries(got.lcols[t], want.lcols[t]):
			return fmt.Errorf("lcols[%d] = %v, want %v", t, got.lcols[t], want.lcols[t])
		case !sameEntries(got.ucols[t], want.ucols[t]):
			return fmt.Errorf("ucols[%d] = %v, want %v", t, got.ucols[t], want.ucols[t])
		case !sameEntries(got.urows[t], want.urows[t]):
			return fmt.Errorf("urows[%d] = %v, want %v", t, got.urows[t], want.urows[t])
		}
	}
	if got.unnz != want.unnz || got.unnz0 != want.unnz0 {
		return fmt.Errorf("unnz/unnz0 = %d/%d, want %d/%d", got.unnz, got.unnz0, want.unnz, want.unnz0)
	}
	return nil
}

// checkRefactor factorizes s's current basis with the oracle on a fresh
// factor and with the production routine three ways — on a fresh factor,
// again on that factor (reused slabs and scratch), and on the solve's own
// factor when it has one (views edited by Forrest–Tomlin updates) — and
// requires the same verdict and, on success, the same factors.
func checkRefactor(s *simplex) error {
	if s.m == 0 {
		return nil
	}
	ref := newLUFactor(s)
	want := ref.refactorRef()
	fresh := newLUFactor(s)
	under := []*luFactor{fresh, fresh}
	if f, ok := s.bas.(*luFactor); ok {
		under = append(under, f)
	}
	for pass, f := range under {
		if got := f.refactor(); got != want {
			return fmt.Errorf("pass %d: refactor = %v, oracle = %v", pass, got, want)
		}
		for i, v := range f.x {
			if v != 0 {
				return fmt.Errorf("pass %d: scratch x[%d] = %v after refactor", pass, i, v)
			}
		}
		if !want {
			continue
		}
		if err := diffFactors(f, ref); err != nil {
			return fmt.Errorf("pass %d: %w", pass, err)
		}
	}
	return nil
}

// checkRefactorOracle holds refactor to the oracle on bases taken along a
// solve of p: the phase-1 start, stops part-way through (which still carry
// artificials early on), and the final basis.
func checkRefactorOracle(tb testing.TB, label string, p *Problem, opts Options) {
	tb.Helper()
	full := newSimplex(cloneProblem(p), opts)
	full.solve()
	for _, limit := range []int{1, full.iters / 8, full.iters / 3, 2 * full.iters / 3} {
		if limit <= 0 {
			continue
		}
		o := opts
		o.MaxIters = limit
		s := newSimplex(cloneProblem(p), o)
		s.solve()
		if err := checkRefactor(s); err != nil {
			tb.Fatalf("%s stopped at %d of %d pivots: %v", label, limit, full.iters, err)
		}
	}
	if err := checkRefactor(full); err != nil {
		tb.Fatalf("%s final basis: %v", label, err)
	}
}

// TestRefactorMatchesReference: the sparse refactor must compute, bit for
// bit, what the dense-scan routine it replaced computes (refactorRef) —
// pivot rows, column order, every L and U entry in order, the row mirror —
// and fail on exactly the same bases, leaving scratch clean.
func TestRefactorMatchesReference(t *testing.T) {
	t.Run("random-columns", func(t *testing.T) {
		// Arbitrary column subsets of random sparse models, artificials and
		// repeated columns included: roughly half are singular.
		rng := rand.New(rand.NewSource(31))
		singular := 0
		for trial := 0; trial < 300; trial++ {
			m := 2 + rng.Intn(30)
			s := phase1Simplex(randomFeasibleLP(rng, m, m+rng.Intn(m)), Options{})
			for i := range s.basis {
				if rng.Intn(3) > 0 {
					s.basis[i] = rng.Intn(s.ncols + s.m)
				}
			}
			if err := checkRefactor(s); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if !newLUFactor(s).refactor() {
				singular++
			}
		}
		if singular == 0 || singular == 300 {
			t.Fatalf("%d of 300 random bases singular: want a mix", singular)
		}
	})
	t.Run("mid-solve", func(t *testing.T) {
		rng := rand.New(rand.NewSource(32))
		for trial := 0; trial < 6; trial++ {
			p := randomMixedLP(rng, 10+rng.Intn(20), 15+rng.Intn(30))
			checkRefactorOracle(t, fmt.Sprintf("mixed-%d", trial), p, Options{reinvertEvery: 5})
		}
		checkRefactorOracle(t, "cluster", clusterShapedLP(40, 4, 2), Options{})
		checkRefactorOracle(t, "lb", lbShapedLP(12, 3, 2), Options{})
		checkRefactorOracle(t, "te", teShapedLP(40, 30, 2), Options{})
	})
	t.Run("allocation-shaped", func(t *testing.T) {
		for _, c := range append(clusterCases(300), solvedCases(t)...) {
			if err := checkRefactor(c.s); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
	})
	t.Run("singular", func(t *testing.T) {
		p := NewProblem(Maximize)
		x := p.AddVariable(1, 0, 10, "x")
		y := p.AddVariable(1, 0, 10, "y")
		p.AddConstraint([]int{x, y}, []float64{1, 1}, LE, 6, "")
		p.AddConstraint([]int{x, y}, []float64{2, 2}, LE, 12, "")
		s := phase1Simplex(p, Options{})
		for _, basis := range [][]int{{x, x}, {x, y}, {y, x}} {
			copy(s.basis, basis)
			if newLUFactor(s).refactor() {
				t.Fatalf("basis %v accepted", basis)
			}
			if err := checkRefactor(s); err != nil {
				t.Fatalf("basis %v: %v", basis, err)
			}
		}
	})
}

// fuzzBasis decodes fuzz bytes into a small sparse model and a choice of
// basis columns (structurals, slacks and artificials, repeats allowed).
func fuzzBasis(data []byte) *simplex {
	if len(data) < 2 {
		return nil
	}
	m, n := 1+int(data[0])%12, 1+int(data[1])%12
	data = data[2:]
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	p := NewProblem(Maximize)
	for j := 0; j < n; j++ {
		p.AddVariable(1, 0, 10, "")
	}
	for i := 0; i < m; i++ {
		var idx []int
		var val []float64
		for j := 0; j < n; j++ {
			// Two bits of density, six of value: small integers and a few
			// widely scaled magnitudes so threshold ties and cancellation to
			// exact zero both occur.
			b := next()
			if b&3 != 0 {
				continue
			}
			v := float64(int(b>>2&15) - 7)
			if b&0x40 != 0 {
				v *= 1e-6
			}
			idx = append(idx, j)
			val = append(val, v)
		}
		p.AddConstraint(idx, val, []Sense{LE, GE, EQ}[int(next())%3], float64(next()), "")
	}
	s := phase1Simplex(p, Options{})
	for i := range s.basis {
		s.basis[i] = int(next()) % (s.ncols + s.m)
	}
	return s
}

// FuzzRefactor: on any small sparse basis the fuzzer can spell, refactor
// agrees with the oracle and never panics. The seed corpus runs under
// plain `go test`, -short included.
func FuzzRefactor(f *testing.F) {
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 40; i++ {
		seed := make([]byte, 2+rng.Intn(200))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{3, 3, 0, 4, 8, 0, 4, 8, 0, 4, 8, 0, 0, 0, 1, 2}) // rank-deficient rows
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzBasis(data)
		if s == nil {
			return
		}
		if err := checkRefactor(s); err != nil {
			t.Fatalf("m=%d basis %v: %v", s.m, s.basis, err)
		}
	})
}

// TestRefactorWorkLinear pins the cost model: the entries refactor visits
// (luFactor.work, a count — not a timing) stay within a constant of
// nnz(B)+nnz(L)+nnz(U)+m as m grows 16×. Any loop over 0..m inside the
// per-column body books m² and fails the largest case by three orders of
// magnitude.
func TestRefactorWorkLinear(t *testing.T) {
	for _, c := range clusterCases(300, 1200, 4800) {
		f := newLUFactor(c.s)
		if !f.refactor() {
			t.Fatalf("%s: singular", c.name)
		}
		nnzB := 0
		for pos := 0; pos < f.m; pos++ {
			ind, _ := f.basisCol(pos)
			nnzB += len(ind)
		}
		budget := 8 * (nnzB + len(f.slab) + 2*f.m)
		t.Logf("%s: m=%d nnz(B)=%d nnz(L+U)=%d work=%d budget=%d", c.name, f.m, nnzB, len(f.slab)+f.m, f.work, budget)
		if f.work > budget {
			t.Errorf("%s: refactor visited %d entries, budget %d", c.name, f.work, budget)
		}
	}
}

// TestRefactorSteadyStateAllocs: once a factor has been through one
// refactor, the next one on it reuses the slabs and scratch — O(1) objects,
// not one slice per column.
func TestRefactorSteadyStateAllocs(t *testing.T) {
	for _, c := range append(clusterCases(300), solvedCases(t)...) {
		f := newLUFactor(c.s)
		f.refactor()
		if n := testing.AllocsPerRun(5, func() { f.refactor() }); n > 2 {
			t.Errorf("%s (m=%d): steady-state refactor allocates %v objects", c.name, f.m, n)
		}
	}
}
