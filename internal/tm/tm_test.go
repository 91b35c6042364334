package tm

import (
	"math"
	"sort"
	"testing"
)

func TestGenerateBasics(t *testing.T) {
	for _, m := range Models() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			ds := Generate(Config{Nodes: 30, Commodities: 200, Model: m, TotalDemand: 1000, Seed: 1})
			if len(ds) != 200 {
				t.Fatalf("got %d demands", len(ds))
			}
			if !approx(sumDemand(ds), 1000, 1e-9) {
				t.Fatalf("total = %g, want 1000", sumDemand(ds))
			}
			seen := map[[2]int]bool{}
			for _, d := range ds {
				if d.Src == d.Dst {
					t.Fatalf("self demand %+v", d)
				}
				if d.Src < 0 || d.Src >= 30 || d.Dst < 0 || d.Dst >= 30 {
					t.Fatalf("out of range %+v", d)
				}
				if d.Amount <= 0 {
					t.Fatalf("non-positive demand %+v", d)
				}
				pr := [2]int{d.Src, d.Dst}
				if seen[pr] {
					t.Fatalf("duplicate pair %v", pr)
				}
				seen[pr] = true
			}
		})
	}
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b)) }

func TestDeterministic(t *testing.T) {
	cfg := Config{Nodes: 20, Commodities: 50, Model: Gravity, Seed: 42}
	a := Generate(cfg)
	b := Generate(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("demand %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestPoissonIsSkewed(t *testing.T) {
	// The Poisson model must be much more skewed than Gravity: compare the
	// share of total demand held by the top 5% of commodities.
	top5 := func(m Model) float64 {
		ds := Generate(Config{Nodes: 50, Commodities: 1000, Model: m, Seed: 3})
		amounts := make([]float64, len(ds))
		for i, d := range ds {
			amounts[i] = d.Amount
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(amounts)))
		total, top := 0.0, 0.0
		for i, a := range amounts {
			total += a
			if i < len(amounts)/20 {
				top += a
			}
		}
		return top / total
	}
	pg, gg := top5(Poisson), top5(Gravity)
	if pg < 1.5*gg {
		t.Fatalf("poisson top-5%% share %.3f not clearly above gravity %.3f", pg, gg)
	}
}

func TestCommoditiesCapped(t *testing.T) {
	ds := Generate(Config{Nodes: 4, Commodities: 100, Model: Uniform, Seed: 1})
	if len(ds) != 12 { // 4·3 ordered pairs
		t.Fatalf("got %d demands, want 12", len(ds))
	}
}

func TestRescaleZeroTotalNoop(t *testing.T) {
	ds := []Demand{}
	Rescale(ds, 100) // must not panic
}

func TestDiurnal(t *testing.T) {
	cfg := Config{Nodes: 20, Commodities: 60, Model: Poisson, TotalDemand: 500, Seed: 7}
	trace := Diurnal(cfg, 48, 24)
	if len(trace) != 48 {
		t.Fatalf("got %d steps", len(trace))
	}
	for _, step := range trace {
		if len(step) != 60 {
			t.Fatalf("step has %d demands", len(step))
		}
	}
	// The commodity set must be constant over time.
	for ti := 1; ti < len(trace); ti++ {
		for i := range trace[ti] {
			if trace[ti][i].Src != trace[0][i].Src || trace[ti][i].Dst != trace[0][i].Dst {
				t.Fatal("commodity set changed over time")
			}
		}
	}
	// Day/night variation should be visible in aggregate demand.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, step := range trace {
		tot := sumDemand(step)
		lo = math.Min(lo, tot)
		hi = math.Max(hi, tot)
	}
	if hi/lo < 1.2 {
		t.Fatalf("no diurnal variation: lo=%g hi=%g", lo, hi)
	}
}

// sumDemand sums the demand amounts.
func sumDemand(demands []Demand) float64 {
	sum := 0.0
	for _, d := range demands {
		sum += d.Amount
	}
	return sum
}
