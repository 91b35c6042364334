package price

import (
	"fmt"
	"math/rand"
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
			eng := NewClusterEngine(c, Options{Seed: 1, Parallel: true})
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

// servePopulation is the client generator of the repository benchmark's
// serve workloads: throughputs 1+U, 2+2U and 3+3U on the three GPU types,
// unit weight and scale.
func servePopulation(n int, seed int64) []cluster.Job {
	rnd := rand.New(rand.NewSource(seed))
	jobs := make([]cluster.Job, n)
	for j := range jobs {
		jobs[j] = cluster.Job{
			ID:         j,
			Throughput: []float64{1 + rnd.Float64(), 2 + 2*rnd.Float64(), 3 + 3*rnd.Float64()},
			Weight:     1,
			Scale:      1,
			NumSteps:   1000,
			Priority:   1,
		}
	}
	return jobs
}

// BenchmarkBestResponse times the best-response pass over one serve
// worker's market — 25 000 clients of the serve population over a pool of
// n/8 GPUs per type — at the prices a cold solve of it clears, and at
// Solve's cold seed prices. Each runs two ways over Solve's 1024-client
// chunks, both with the fold into partial demands and averaged rows:
// per-client is BestResponse plus the generic fold (Solve's pass for a
// domain without a chunk kernel), chunk is the kernel Solve runs on this
// market. Each reports ns per client and the share of clients the
// certificate answers (fast-%). The solve row times a warm solve of the
// same market held to 8 iterations, from the cleared prices moved ±5%.
func BenchmarkBestResponse(b *testing.B) {
	const n = 25_000
	jobs := servePopulation(n, 1)
	c := cluster.NewCluster(n/8, n/8, n/8)
	d := oneShotDomain(jobs, c)
	sol, err := Solve(d, withMaxMinStep(Options{Seed: 1, Parallel: true}))
	if err != nil {
		b.Fatal(err)
	}
	cold := make([]float64, 3)
	for i := range cold {
		cold[i] = d.DemandHint() / (c.NumGPUs[i] * 3) // Solve's cold seed, unjittered
	}
	const gamma = (avgPow + 1) / (8 + avgPow + 1) // iteration 8's weight
	acc, cur, avg := make([]float64, 3), make([]float64, 3), make([]float64, 3*n)
	for _, tc := range []struct {
		name  string
		price []float64
	}{{"cleared", sol.Price}, {"cold", cold}} {
		for _, path := range []struct {
			name string
			pass func(lo, hi int)
		}{
			{"per-client", func(lo, hi int) {
				for j := lo; j < hi; j++ {
					d.BestResponse(j, tc.price, cur)
					foldResponse(cur, acc, avg[3*j:3*j+3], gamma)
				}
			}},
			{"chunk", func(lo, hi int) { d.BestResponses(lo, hi, tc.price, gamma, acc, avg, cur) }},
		} {
			b.Run(tc.name+"/"+path.name, func(b *testing.B) {
				d.PrepareIteration(tc.price)
				fast := 0
				for j := 0; j < n; j++ {
					if _, _, ok := d.certifiedSingleton(j, tc.price); ok {
						fast++
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for lo := 0; lo < n; lo += chunkSize {
						clear(acc)
						path.pass(lo, min(lo+chunkSize, n))
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/client")
				b.ReportMetric(100*float64(fast)/n, "fast-%")
			})
		}
	}
	b.Run("solve", func(b *testing.B) {
		opts := withMaxMinStep(Options{Seed: 1, Parallel: true, MaxIters: 8})
		opts.WarmPrice = []float64{sol.Price[0] * 1.05, sol.Price[1] * 0.95, sol.Price[2]}
		iters := 0
		for i := 0; i < b.N; i++ {
			s, err := Solve(d, opts)
			if err != nil {
				b.Fatal(err)
			}
			iters = s.Iterations
		}
		b.ReportMetric(float64(iters), "iters")
	})
}
