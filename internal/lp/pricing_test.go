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
