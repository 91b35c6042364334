package price

import (
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pop/internal/cluster"
	"pop/internal/obs"
)

// linearDomain is a tiny analytic market for solver unit tests: client j has
// log utility w_j·log(x) over one resource, demanding w_j/p, so the
// equilibrium price is exactly Σw_j/capacity.
type linearDomain struct {
	w   []float64
	cap float64
}

func (d *linearDomain) Dims() (int, int)       { return len(d.w), 1 }
func (d *linearDomain) Capacity(out []float64) { out[0] = d.cap }
func (d *linearDomain) DemandHint() float64 {
	s := 0.0
	for _, w := range d.w {
		s += w
	}
	return s
}
func (d *linearDomain) BestResponse(j int, price []float64, out []float64) {
	out[0] = d.w[j] / price[0]
}

func TestSolveAnalyticMarket(t *testing.T) {
	d := &linearDomain{w: []float64{3, 5, 2, 6}, cap: 4}
	sol, err := Solve(d, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged {
		t.Fatalf("analytic market did not converge: %d iters, residual %g", sol.Iterations, sol.Residual)
	}
	// Equilibrium: p = Σw/cap = 16/4 = 4, client j demands w_j/4.
	if got, want := sol.Price[0], 4.0; math.Abs(got-want)/want > 0.05 {
		t.Errorf("equilibrium price = %g, want ≈ %g", got, want)
	}
	for j, w := range d.w {
		if got, want := sol.ClientDemand(j)[0], w/4; math.Abs(got-want)/want > 0.05 {
			t.Errorf("client %d demand = %g, want ≈ %g", j, got, want)
		}
	}
	agg := sol.AggregateDemand()
	if math.Abs(agg[0]-d.cap)/d.cap > 0.02 {
		t.Errorf("aggregate demand %g should clear capacity %g", agg[0], d.cap)
	}
}

func TestSolveDeterminism(t *testing.T) {
	for _, market := range []struct {
		name  string
		jobs  []cluster.Job
		c     cluster.Cluster
		solve func([]cluster.Job, cluster.Cluster, Options) (*cluster.Allocation, *Solution, error)
	}{
		{"maxmin", cluster.GenerateJobs(300, 11, 0.3), cluster.NewCluster(60, 60, 60), SolveMaxMin},
		// More than two chunks, so the parallel run really fans out.
		{"propfair", cluster.GenerateJobs(2100, 11, 0.3), cluster.NewCluster(420, 420, 420), SolvePropFair},
	} {
		jobs, c := market.jobs, market.c
		solve := func(parallel bool) (*cluster.Allocation, *Solution) {
			a, sol, err := market.solve(jobs, c, Options{Seed: 11, Parallel: parallel, MaxIters: 150})
			if err != nil {
				t.Fatal(err)
			}
			return a, sol
		}
		a1, s1 := solve(false)
		a2, s2 := solve(false)
		a3, s3 := solve(true) // parallel fan-out must not change the bits

		for _, pair := range []struct {
			name   string
			a, b   *Solution
			xa, xb *cluster.Allocation
		}{{market.name + "/repeat", s1, s2, a1, a2}, {market.name + "/parallel", s1, s3, a1, a3}} {
			if pair.a.Iterations != pair.b.Iterations || pair.a.Residual != pair.b.Residual {
				t.Errorf("%s: accounting differs: (%d, %g) vs (%d, %g)",
					pair.name, pair.a.Iterations, pair.a.Residual, pair.b.Iterations, pair.b.Residual)
			}
			for i := range pair.a.Price {
				if pair.a.Price[i] != pair.b.Price[i] {
					t.Fatalf("%s: price[%d] differs: %v vs %v", pair.name, i, pair.a.Price[i], pair.b.Price[i])
				}
			}
			for j := range pair.xa.X {
				for i := range pair.xa.X[j] {
					if pair.xa.X[j][i] != pair.xb.X[j][i] {
						t.Fatalf("%s: X[%d][%d] differs: %v vs %v",
							pair.name, j, i, pair.xa.X[j][i], pair.xb.X[j][i])
					}
				}
			}
		}
	}
}

func TestWarmPriceCutsIterations(t *testing.T) {
	n := 200
	jobs := cluster.GenerateJobs(n, 5, 0.3)
	c := cluster.NewCluster(40, 40, 40)
	_, cold, err := SolveMaxMin(jobs, c, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Converged {
		t.Fatalf("cold solve did not converge (%d iters, residual %g)", cold.Iterations, cold.Residual)
	}
	// Low-churn perturbation: 2% of jobs replaced.
	perturbed := append(append([]cluster.Job{}, jobs[4:]...), cluster.GenerateJobs(4, 77, 0.3)...)
	_, cold2, err := SolveMaxMin(perturbed, c, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, warm, err := SolveMaxMin(perturbed, c, Options{Seed: 5, WarmPrice: cold.Price})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted {
		t.Fatal("warm solve did not take the warm price")
	}
	if !warm.Converged {
		t.Fatalf("warm solve did not converge (%d iters, residual %g)", warm.Iterations, warm.Residual)
	}
	t.Logf("cold=%d perturbed-cold=%d warm=%d iterations", cold.Iterations, cold2.Iterations, warm.Iterations)
	if warm.Iterations*2 >= cold2.Iterations {
		t.Errorf("warm start should cut iterations at least 2x: warm=%d vs cold=%d",
			warm.Iterations, cold2.Iterations)
	}
}

func TestWarmPriceWrongShapeIgnored(t *testing.T) {
	jobs := cluster.GenerateJobs(20, 3, 0.3)
	c := cluster.NewCluster(4, 4, 4)
	for _, bad := range [][]float64{
		{1, 2},              // wrong length
		{1, 2, 0},           // non-positive entry
		{1, 2, math.NaN()},  // NaN
		{1, math.Inf(1), 2}, // infinite
	} {
		_, sol, err := SolveMaxMin(jobs, c, Options{Seed: 3, WarmPrice: bad, MaxIters: 50})
		if err != nil {
			t.Fatalf("WarmPrice %v: %v", bad, err)
		}
		if sol.WarmStarted {
			t.Errorf("WarmPrice %v should be ignored, not warm-start", bad)
		}
	}
}

func TestSolveEmptyAndDegenerate(t *testing.T) {
	sol, err := Solve(&linearDomain{w: nil, cap: 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged || sol.Iterations != 0 {
		t.Errorf("empty market should converge immediately, got %+v", sol)
	}
	if _, err := Solve(badDimsDomain{}, Options{}); err == nil {
		t.Error("zero resources should be rejected")
	}
}

type badDimsDomain struct{}

func (badDimsDomain) Dims() (int, int)                       { return 3, 0 }
func (badDimsDomain) Capacity([]float64)                     {}
func (badDimsDomain) DemandHint() float64                    { return 1 }
func (badDimsDomain) BestResponse(int, []float64, []float64) {}

// TestPriceMetricsGuard (env-gated, run by CI) asserts the price-engine
// iteration counters reach the Prometheus export.
func TestPriceMetricsGuard(t *testing.T) {
	if os.Getenv("PRICE_METRICS_GUARD") == "" {
		t.Skip("set PRICE_METRICS_GUARD=1 to run")
	}
	reg := obs.NewRegistry()
	o := &obs.Observer{Metrics: reg}
	jobs := cluster.GenerateJobs(40, 1, 0.3)
	c := cluster.NewCluster(8, 8, 8)
	if _, _, err := SolveMaxMin(jobs, c, Options{Seed: 1, MaxIters: 50, Obs: o}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, metric := range []string{
		"pop_price_solves_total",
		"pop_price_iterations_total",
		"pop_price_cold_solves_total",
		"pop_price_clearing_residual",
	} {
		if !strings.Contains(out, metric) {
			t.Errorf("Prometheus export missing %s:\n%s", metric, out)
		}
	}
}

// TestOptionsSurface pins the exported fields of Options, as lp's test of
// the same name does: every field is a configuration the suites and the
// benchmark must cover, so a new one displaces an old one.
func TestOptionsSurface(t *testing.T) {
	for _, tc := range []struct {
		opts any
		want []string
	}{
		{Options{}, []string{"MaxIters", "Seed", "Parallel", "WarmPrice", "Obs"}},
	} {
		var got []string
		for _, f := range reflect.VisibleFields(reflect.TypeOf(tc.opts)) {
			if f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("exported %T fields = %v, want exactly %v", tc.opts, got, tc.want)
		}
	}
}
