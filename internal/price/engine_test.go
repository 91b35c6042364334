package price

import (
	"math"
	"testing"

	"pop/internal/cluster"
	"pop/internal/obs"
)

// stepRounds plays a low-churn round sequence against an engine: each round
// replaces a couple of jobs and jitters one weight, the membership churn
// staying well under ColdChurnFrac. With cold set, every round first drops
// the carried prices.
func stepRounds(t *testing.T, e *ClusterEngine, c cluster.Cluster, rounds int, cold bool) []float64 {
	t.Helper()
	jobs := cluster.GenerateJobs(160, 21, 0.3)
	nextID := 10_000
	objs := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		if r > 0 {
			// Two departures, two arrivals, one in-place update.
			fresh := cluster.GenerateJobs(2, int64(100+r), 0.3)
			for i := range fresh {
				fresh[i].ID = nextID
				nextID++
			}
			jobs = append(jobs[2:], fresh...)
			jobs[0].Weight *= 1.1
		}
		if cold {
			e.MarkAllDirty()
		}
		a, err := e.Step(jobs, c)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if err := cluster.VerifyFeasible(jobs, c, a, 1e-6); err != nil {
			t.Fatalf("round %d: infeasible: %v", r, err)
		}
		objs = append(objs, MaxMinObjective(jobs, c, a))
	}
	return objs
}

func TestClusterEngineWarmVsCold(t *testing.T) {
	c := cluster.NewCluster(32, 32, 32)
	warmEng := NewClusterEngine(c, Options{Seed: 21, Parallel: true})
	coldEng := NewClusterEngine(c, Options{Seed: 21, Parallel: true})
	const rounds = 6
	warmObjs := stepRounds(t, warmEng, c, rounds, false)
	coldObjs := stepRounds(t, coldEng, c, rounds, true)

	ws, cs := warmEng.Stats(), coldEng.Stats()
	t.Logf("warm engine: %+v", ws)
	t.Logf("cold engine: %+v", cs)
	if ws.WarmPriceRounds != rounds-1 || ws.ColdPriceRounds != 1 {
		t.Errorf("warm engine rounds: got warm=%d cold=%d, want %d/1", ws.WarmPriceRounds, ws.ColdPriceRounds, rounds-1)
	}
	if cs.WarmPriceRounds != 0 || cs.ColdPriceRounds != rounds {
		t.Errorf("cold engine rounds: got warm=%d cold=%d, want 0/%d", cs.WarmPriceRounds, cs.ColdPriceRounds, rounds)
	}
	// Warm and cold solve the same market to the same tolerance: the policy
	// objectives must agree within a small band even though the iteration
	// paths differ.
	for r := range warmObjs {
		if diff := math.Abs(warmObjs[r]-coldObjs[r]) / math.Max(coldObjs[r], 1e-9); diff > 0.05 {
			t.Errorf("round %d: warm objective %.4f vs cold %.4f diverge %.1f%%",
				r, warmObjs[r], coldObjs[r], 100*diff)
		}
	}
	// And warm rounds must be cheaper: total iterations strictly below the
	// all-cold engine's.
	if ws.Iterations*2 >= cs.Iterations {
		t.Errorf("warm engine spent %d iterations, cold %d: want at least a 2x cut", ws.Iterations, cs.Iterations)
	}
}

func TestClusterEngineChurnFallback(t *testing.T) {
	c := cluster.NewCluster(16, 16, 16)
	e := NewClusterEngine(c, Options{Seed: 3})
	jobs := cluster.GenerateJobs(80, 3, 0.3)
	if _, err := e.Step(jobs, c); err != nil {
		t.Fatal(err)
	}
	// Replace half the jobs: membership churn 50% ≥ the default 25% drops
	// the carried prices.
	fresh := cluster.GenerateJobs(40, 999, 0.3)
	for i := range fresh {
		fresh[i].ID = 20_000 + i
	}
	if _, err := e.Step(append(jobs[40:], fresh...), c); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.ColdPriceRounds != 2 || st.WarmPriceRounds != 0 {
		t.Errorf("heavy churn should solve cold: %+v", st)
	}

	// A third, low-churn round goes warm again.
	if _, err := e.Step(append(jobs[40:], fresh...), c); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.WarmPriceRounds != 1 {
		t.Errorf("low-churn round should solve warm: %+v", st)
	}
}

func TestClusterEngineCapacityRescale(t *testing.T) {
	c := cluster.NewCluster(16, 16, 16)
	e := NewClusterEngine(c, Options{Seed: 9})
	jobs := cluster.GenerateJobs(60, 9, 0.3)
	if _, err := e.Step(jobs, c); err != nil {
		t.Fatal(err)
	}
	p := append([]float64(nil), e.price...)
	// Halving every capacity doubles the carried prices and stays warm.
	c2 := cluster.NewCluster(8, 8, 8)
	if _, err := e.Step(jobs, c2); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.WarmPriceRounds != 1 {
		t.Errorf("capacity change should rescale prices, not drop them: %+v", st)
	}
	_ = p
	// MarkAllDirty forces the next round cold.
	e.MarkAllDirty()
	if _, err := e.Step(jobs, c2); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.ColdPriceRounds != 2 {
		t.Errorf("MarkAllDirty should force a cold round: %+v", st)
	}
}

// TestEnumeratedCount checks the count of best responses the certificate
// left to enumeration: the same number in Stats and in
// pop_price_enumerated_total each round; none on the serve population at
// the prices its rounds cleared (a solve's wandering iterates may meet a
// rare near-tie); some on a market whose pool far exceeds its few clients
// (their demand is clamped at the time budget), booked in Stats and in
// pop_price_enumerated_total alike; and one for a client tied across types
// in a single iteration at the tie.
func TestEnumeratedCount(t *testing.T) {
	reg := obs.NewRegistry()
	counter := reg.Counter("pop_price_enumerated_total", "")
	o := &obs.Observer{Metrics: reg}

	const n = 3000
	jobs := servePopulation(n, 3)
	c := cluster.NewCluster(n/8, n/8, n/8)
	e := NewClusterEngine(c, Options{Seed: 3, Parallel: true, Obs: o})
	for round := 0; round < 4; round++ {
		if round > 0 {
			fresh := servePopulation(n/100, int64(10+round))
			for k := range fresh {
				fresh[k].ID = n + round*n + k
				jobs[(round*n/100+k)%n] = fresh[k]
			}
		}
		before := counter.Value()
		if _, err := e.Step(jobs, c); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if booked := counter.Value() - before; int64(st.LastEnumerated) != booked {
			t.Fatalf("serve population round %d: %d enumerated in Stats, %d in the counter", round, st.LastEnumerated, booked)
		}
		t.Logf("serve population round %d: %d of %d best responses enumerated",
			round, st.LastEnumerated, n*st.LastIterations)
	}
	if e.Stats().WarmPriceRounds != 3 {
		t.Fatalf("serve population: %+v, want three warm rounds", e.Stats())
	}
	// One iteration at the cleared prices, the start of the next warm round.
	sol, err := Solve(e.dom, withMaxMinStep(Options{WarmPrice: e.price, MaxIters: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if sol.enumerated != 0 {
		t.Fatalf("serve population at cleared prices: %d of %d best responses enumerated, want 0", sol.enumerated, n)
	}
	reg = obs.NewRegistry()
	counter = reg.Counter("pop_price_enumerated_total", "")
	o = &obs.Observer{Metrics: reg}

	big := cluster.NewCluster(100, 100, 100)
	e = NewClusterEngine(big, Options{Seed: 3, Parallel: true, Obs: o})
	if _, err := e.Step(servePopulation(3, 4), big); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.LastEnumerated <= 0 || int64(st.LastEnumerated) != counter.Value() {
		t.Fatalf("oversized pool: %d enumerated in Stats, %d in the counter, want equal and > 0 (%+v)",
			st.LastEnumerated, counter.Value(), st)
	}

	// fuzzMarket: r = 3, type 2 priced at type 1's price per throughput.
	d, price := fuzzMarket([]byte{2, 0, 100, 140, 160, 128, 130, 127, 1, 1, 2, 0, 64})
	sol, err = Solve(d, withMaxMinStep(Options{WarmPrice: price, MaxIters: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if sol.enumerated != 1 {
		t.Fatalf("tied client: %d best responses enumerated, want 1", sol.enumerated)
	}
}
