package price

import (
	"fmt"
	"testing"

	"pop/internal/cluster"
)

// BenchmarkWarmRound times one warm engine round (2% churn) — the per-round
// latency the online path pays once prices are carried — at three sizes an
// LP engine also serves, and at 1M clients, far past where the LP is run: the
// measuring path of the in-process scale claim. Best responses fan out over
// GOMAXPROCS (sweep it with -cpu; the allocation is bit-identical at any
// setting).
func BenchmarkWarmRound(b *testing.B) {
	for _, n := range []int{400, 1600, 6400, 1_000_000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			if n >= 1_000_000 && testing.Short() {
				b.Skip("1M clients: a few hundred MB and seconds of set-up")
			}
			g := float64(n) / 5
			c := cluster.NewCluster(g, g, g)
			jobs := cluster.GenerateJobs(n, 1, 0.2)
			eng, err := NewClusterEngine(c, MaxMinFairness, EngineOptions{Solver: Options{Seed: 1, Parallel: true}})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Step(jobs, c); err != nil {
				b.Fatal(err)
			}
			nChurn := n / 50
			nextID := n
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fresh := cluster.GenerateJobs(nChurn, int64(1000+i), 0.2)
				for k := range fresh {
					fresh[k].ID = nextID
					nextID++
					jobs[k%len(jobs)] = fresh[k]
				}
				if _, err := eng.Step(jobs, c); err != nil {
					b.Fatal(err)
				}
			}
			st := eng.Stats()
			b.ReportMetric(float64(st.LastIterations), "iters/round")
		})
	}
}

// BenchmarkBestResponse times the inner closed form alone.
func BenchmarkBestResponse(b *testing.B) {
	jobs := cluster.GenerateJobs(1024, 1, 0.2)
	c := cluster.NewCluster(200, 200, 200)
	d := oneShotDomain(jobs, c, maxMinAlpha)
	price := []float64{0.3, 1.7, 0.9}
	d.PrepareIteration(price)
	out := make([]float64, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.BestResponse(i%1024, price, out)
	}
}
