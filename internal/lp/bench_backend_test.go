package lp_test

import (
	"testing"

	"pop/internal/lp"
	"pop/internal/lp/gen"
)

// The solve regression benchmarks: one solve of each case-study-shaped
// instance (te, cluster, lb at small/medium/large) on the default path and
// on the dense reference inverse. Each reports its pivots per solve and the
// wall time per pivot, so a per-pivot kernel change reads off directly.

func benchBackend(b *testing.B, opts lp.Options) {
	for _, in := range gen.All(1) {
		b.Run(in.Name(), func(b *testing.B) {
			b.ReportMetric(float64(in.P.NumConstraints()), "rows")
			pivots := 0
			for i := 0; i < b.N; i++ {
				sol, err := in.P.SolveWithOptions(opts)
				if err != nil {
					b.Fatal(err)
				}
				if sol.Status != lp.Optimal {
					b.Fatalf("%s: status %v", in.Name(), sol.Status)
				}
				pivots += sol.Iterations
			}
			b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(max(pivots, 1)), "us/pivot")
		})
	}
}

func BenchmarkLPSolveDense(b *testing.B)    { benchBackend(b, lp.Options{}.Dense()) }
func BenchmarkLPSolveSparseLU(b *testing.B) { benchBackend(b, lp.Options{}) }
