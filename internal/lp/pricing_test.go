package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pop/internal/obs"
)

// checkMaintainedPrices solves p under opts — cold, then, when that is
// optimal, a dual re-solve with a fifth of the right-hand sides cut by 10%
// — and before every pricing pass of both holds each nonbasic column's
// maintained reduced cost to a fresh c_j − yᵀA_j priced on the same factor:
// within 1e-9·(1+|d_j|). It reports how many passes it checked.
func checkMaintainedPrices(tb testing.TB, label string, p *Problem, opts Options) int {
	tb.Helper()
	prev := pricingHook
	defer func() { pricingHook = prev }()
	checks := 0
	var bad error
	pricingHook = func(s *simplex) {
		if bad != nil {
			return
		}
		if s.prices == pricesStale {
			bad = fmt.Errorf("pass %d reads stale prices", checks)
			return
		}
		y := make([]float64, s.m)
		s.bas.btranCost(y)
		for j, d := range s.dj {
			if s.status[j] == statBasic {
				continue
			}
			want := s.cost[j]
			ind, val := s.std.col(j)
			for t, i := range ind {
				want -= y[i] * val[t]
			}
			if math.Abs(d-want) > 1e-9*(1+math.Abs(d)) {
				bad = fmt.Errorf("pass %d (pivot %d, phase %d): d_%d maintained %.17g, fresh %.17g", checks, s.iters, s.phase, j, d, want)
				return
			}
		}
		checks++
	}
	sol, err := cloneProblem(p).SolveWithOptions(opts)
	if err != nil {
		tb.Fatalf("%s: %v", label, err)
	}
	if sol.Status == Optimal {
		q := cloneProblem(p)
		for i := range q.rows {
			if i%5 == 0 {
				q.rows[i].rhs *= 0.9
			}
		}
		o := opts
		o.WarmBasis, o.Dual = sol.Basis, true
		if _, err := q.SolveWithOptions(o); err != nil {
			tb.Fatalf("%s dual re-solve: %v", label, err)
		}
	}
	if bad != nil {
		tb.Fatalf("%s: %v", label, bad)
	}
	return checks
}

// pricingCorpus draws n instances from each of equivalence_test.go's
// generators, labelled kind/i.
func pricingCorpus(n int) (labels []string, ps []*Problem) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < n; i++ {
		for _, c := range []struct {
			kind string
			p    *Problem
		}{
			{"feasible", randomFeasibleLP(rng, 4+rng.Intn(12), 6+rng.Intn(18))},
			{"mixed", randomMixedLP(rng, 3+rng.Intn(10), 4+rng.Intn(12))},
			{"infeasible", randomInfeasibleLP(rng, 3+rng.Intn(6), 4+rng.Intn(8))},
			{"unbounded", randomUnboundedLP(rng, 3+rng.Intn(6), 4+rng.Intn(8))},
			{"degenerate", randomDegenerateLP(rng, 4+rng.Intn(8))},
		} {
			labels = append(labels, fmt.Sprintf("%s/%d", c.kind, i))
			ps = append(ps, c.p)
		}
	}
	return labels, ps
}

// TestMaintainedReducedCosts: the reduced costs a solve carries across
// pivots from the pivot rows agree with fresh pricing after every pivot, on
// the random generators at the default refactor cadence and at a cadence of
// three (the case-study shapes run from lp_test, through
// CheckMaintainedPrices). And no verdict rests on them: with the maintained
// value of the last eligible column sign-flipped just before the scan that
// would then declare Optimal, every solve still returns the dense
// reference's status and objective, and the overturn is booked.
func TestMaintainedReducedCosts(t *testing.T) {
	labels, corpus := pricingCorpus(12)
	for _, every := range []int{512, 3} {
		checks := 0
		for i, p := range corpus {
			checks += checkMaintainedPrices(t, fmt.Sprintf("%s every %d", labels[i], every), p, Options{reinvertEvery: every})
		}
		if checks < len(corpus) {
			t.Fatalf("every %d: %d pricing passes checked over %d solves", every, checks, len(corpus))
		}
	}

	t.Run("corrupted-verdict", func(t *testing.T) {
		prev := pricingHook
		defer func() { pricingHook = prev }()
		var flipped *simplex
		flip := func(s *simplex) {
			if s.prices != pricesMaintained || s == flipped {
				return
			}
			only := -1
			for j, d := range s.dj {
				st := s.status[j]
				if st == statBasic || s.std.lb[j] == s.std.ub[j] || -direction(st, d)*d <= s.opts.TolOpt {
					continue
				}
				if only >= 0 {
					return // more than one eligible: no verdict is one flip away
				}
				only = j
			}
			if only >= 0 {
				s.dj[only] = -s.dj[only]
				flipped = s
			}
		}
		reg := obs.NewRegistry()
		o := &obs.Observer{Metrics: reg}
		for i, p := range corpus {
			pricingHook = nil
			want, err := cloneProblem(p).SolveWithOptions(Options{dense: true})
			if err != nil {
				t.Fatal(err)
			}
			pricingHook = flip
			got, err := cloneProblem(p).SolveWithOptions(Options{Obs: o})
			if err != nil {
				t.Fatal(err)
			}
			if got.Status != want.Status {
				t.Fatalf("%s: status %v, dense reference %v", labels[i], got.Status, want.Status)
			}
			if got.Status == Optimal && !approxEq(got.Objective, want.Objective, 1e-6) {
				t.Fatalf("%s: objective %.12g, dense reference %.12g", labels[i], got.Objective, want.Objective)
			}
		}
		if n := o.Counter("pop_lp_price_overturns_total", "").Value(); n == 0 {
			t.Fatal("no corrupted verdict was overturned: the hook never fired")
		}
	})
}

// TestPriceBreaksTiesTowardSparsest pins the entering rule on hand-set
// reduced costs: Dantzig takes the largest violation; an exact tie goes to
// the column with the fewest nonzeros, whatever its index, and a tie in
// nonzeros too to the lowest index. Only a choice the tie-break made is
// booked. Bland mode returns the first eligible column, unchanged.
func TestPriceBreaksTiesTowardSparsest(t *testing.T) {
	// Column nonzeros: x0 3, x1 1, x2 2, x3 1.
	p := NewProblem(Minimize)
	p.AddVariables(4, 0, 0, 10)
	p.AddConstraint([]int{0, 1, 2}, []float64{1, 1, 1}, LE, 5, "")
	p.AddConstraint([]int{0, 2, 3}, []float64{1, 1, 1}, LE, 5, "")
	p.AddConstraint([]int{0}, []float64{1}, LE, 5, "")
	s := newSimplex(p, Options{})
	s.dj = make([]float64, s.ncols)
	s.status = make([]int8, s.ncols) // slacks stay basic
	for j := 0; j < 4; j++ {
		s.status[j] = statLower
	}
	for _, c := range []struct {
		name  string
		dj    [4]float64
		bland bool
		want  int
		ties  int
	}{
		{"sparser later column wins the tie", [4]float64{-1, -0.5, -1, -1}, false, 3, 1},
		{"sparsest of three ties", [4]float64{-1, -1, -1, -0.5}, false, 1, 1},
		{"equal nonzeros: lowest index", [4]float64{-0.5, -1, -0.5, -1}, false, 1, 0},
		{"larger violation beats sparser", [4]float64{-2, -1, -1, -1}, false, 0, 0},
		{"later larger violation undoes a tie", [4]float64{-1, -1, -1.5, 0}, false, 2, 0},
		{"bland: first eligible", [4]float64{-0.5, -1, -1, -1}, true, 0, 0},
	} {
		copy(s.dj, c.dj[:])
		s.blandMode = c.bland
		s.priceTies = 0
		q, d := s.price()
		if q != c.want || d != c.dj[c.want] {
			t.Errorf("%s: price() = (%d, %g), want (%d, %g)", c.name, q, d, c.want, c.dj[c.want])
		}
		if s.priceTies != c.ties {
			t.Errorf("%s: %d tie-break choices booked, want %d", c.name, s.priceTies, c.ties)
		}
	}

	// A solve books its tie-break choices: two paths of one demand, the
	// later one crossing one edge to the earlier one's three, price alike.
	path := NewProblem(Maximize)
	path.AddVariables(2, 1, 0, Inf)
	path.AddConstraint([]int{0, 1}, []float64{1, 1}, LE, 4, "demand")
	for e := 0; e < 3; e++ {
		path.AddConstraint([]int{0}, []float64{1}, LE, 3, "long")
	}
	path.AddConstraint([]int{1}, []float64{1}, LE, 1, "short")
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	sol, err := path.SolveWithOptions(Options{Obs: o})
	if err != nil || sol.Status != Optimal || sol.Objective != 4 {
		t.Fatalf("path LP: %v, %+v", err, sol)
	}
	if n := o.Counter("pop_lp_price_ties_total", "").Value(); n != 1 {
		t.Fatalf("pop_lp_price_ties_total = %d after the path LP, want 1", n)
	}
}

// checkCandidatePricing runs solve with a pricing hook that, before every
// pricing pass, holds the candidate list's pick to the scan of every
// column: the same column at the same reduced cost, and the same tie-break
// verdict. A list the solver carried over must hold no fixed column (the
// scan never offers one), each entry once, marked in inCand. Where the
// solver keeps no list the hook builds one, so every pass is checked; the
// pick does not depend on the list, so neither does the solve. It returns
// the number of passes checked.
func checkCandidatePricing(tb testing.TB, label string, solve func()) int {
	tb.Helper()
	prev := pricingHook
	defer func() { pricingHook = prev }()
	checks := 0
	var bad error
	pricingHook = func(s *simplex) {
		if bad != nil {
			return
		}
		if s.candOK {
			listed := 0
			for _, j := range s.cands {
				if !s.inCand[j] || s.std.lb[j] == s.std.ub[j] {
					bad = fmt.Errorf("pass %d (pivot %d): list holds column %d (marked %v, bounds [%v, %v])",
						checks, s.iters, j, s.inCand[j], s.std.lb[j], s.std.ub[j])
					return
				}
			}
			for _, in := range s.inCand[:s.ncols] {
				if in {
					listed++
				}
			}
			if listed != len(s.cands) {
				bad = fmt.Errorf("pass %d (pivot %d): %d columns marked, %d listed", checks, s.iters, listed, len(s.cands))
				return
			}
		} else {
			s.listCands()
		}
		q, d, tied := s.priceCands()
		wq, wd, wtied := s.priceScan()
		if q != wq || math.Float64bits(d) != math.Float64bits(wd) || tied != wtied {
			bad = fmt.Errorf("pass %d (pivot %d, phase %d, bland %v): list picks (%d, %v, tied %v), scan (%d, %v, tied %v)",
				checks, s.iters, s.phase, s.blandMode, q, d, tied, wq, wd, wtied)
			return
		}
		checks++
	}
	solve()
	if bad != nil {
		tb.Fatalf("%s: %v", label, bad)
	}
	return checks
}

// TestCandidatePricingMatchesScan is checkCandidatePricing over the random
// generators at the default refactor cadence and at a cadence of three,
// cold and then, when that is optimal, dual-warm on right-hand sides cut
// as checkMaintainedPrices cuts them; every solve ends as it does without
// the hook. The case-study shapes run from lp_test
// (TestCandidatePricingOnCaseStudies).
func TestCandidatePricingMatchesScan(t *testing.T) {
	labels, corpus := pricingCorpus(12)
	same := func(label string, p *Problem, opts Options) *Solution {
		want, err := cloneProblem(p).SolveWithOptions(opts)
		if err != nil {
			t.Fatal(err)
		}
		var got *Solution
		checkCandidatePricing(t, label, func() {
			if got, err = cloneProblem(p).SolveWithOptions(opts); err != nil {
				t.Fatal(err)
			}
		})
		if got.Status != want.Status || got.Iterations != want.Iterations ||
			math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
			t.Fatalf("%s: hooked solve %v/%d/%v, plain %v/%d/%v", label,
				got.Status, got.Iterations, got.Objective, want.Status, want.Iterations, want.Objective)
		}
		return got
	}
	for _, every := range []int{512, 3} {
		for i, p := range corpus {
			label := fmt.Sprintf("%s every %d", labels[i], every)
			sol := same(label, p, Options{reinvertEvery: every})
			if sol.Status != Optimal {
				continue
			}
			q := cloneProblem(p)
			for r := range q.rows {
				if r%5 == 0 {
					q.rows[r].rhs *= 0.9
				}
			}
			same(label+" dual", q, Options{reinvertEvery: every, WarmBasis: sol.Basis, Dual: true})
		}
	}
}

// TestCandidatePricingSkipsFixedColumns: on a min-cost flow, every
// conservation row is an equality with a zero right-hand side, so its
// slack — fixed at zero — starts basic and leaves on the first pivot that
// touches the row, with a reduced cost of its own. The candidate list must
// not take it in (the scan never offers a fixed column), pivot after pivot.
func TestCandidatePricingSkipsFixedColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const nodes, arcs = 30, 240
	p := NewProblem(Minimize)
	rows := make([][]int, nodes)
	vals := make([][]float64, nodes)
	for a := 0; a < arcs; a++ {
		from, to := rng.Intn(nodes), rng.Intn(nodes)
		if from == to {
			to = (to + 1) % nodes
		}
		v := p.AddVariable(1+float64(rng.Intn(9)), 0, float64(1+rng.Intn(5)), "")
		rows[from], vals[from] = append(rows[from], v), append(vals[from], -1)
		rows[to], vals[to] = append(rows[to], v), append(vals[to], 1)
	}
	// Node 0 supplies 6 units (a free arc in keeps the row feasible), node 1
	// absorbs them, and the rest conserve flow.
	src := p.AddVariable(0, 0, 6, "")
	rows[0], vals[0] = append(rows[0], src), append(vals[0], 1)
	p.SetObjectiveCoeff(src, -100)
	for i := 0; i < nodes; i++ {
		sense := EQ
		if i == 1 {
			sense = GE
		}
		p.AddConstraint(rows[i], vals[i], sense, 0, "")
	}
	want, err := cloneProblem(p).SolveWithOptions(Options{})
	if err != nil || want.Status != Optimal {
		t.Fatalf("flow LP: %v, %v", err, want.Status)
	}
	var got *Solution
	n := checkCandidatePricing(t, "flow", func() {
		got, err = cloneProblem(p).SolveWithOptions(Options{})
	})
	if err != nil || got.Iterations != want.Iterations || got.Objective != want.Objective || n < got.Iterations {
		t.Fatalf("flow LP: %d passes checked; hooked %v/%d pivots, plain %v/%d", n, got.Objective, got.Iterations, want.Objective, want.Iterations)
	}
}
