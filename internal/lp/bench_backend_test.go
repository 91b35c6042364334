package lp_test

import (
	"testing"

	"pop/internal/lp"
	"pop/internal/lp/gen"
)

// The solve regression benchmarks: one solve of each case-study-shaped
// instance (te, cluster, lb at small/medium/large) on the default path and
// on the dense reference inverse.

func benchBackend(b *testing.B, opts lp.Options) {
	for _, in := range gen.All(1) {
		b.Run(in.Name(), func(b *testing.B) {
			b.ReportMetric(float64(in.P.NumConstraints()), "rows")
			for i := 0; i < b.N; i++ {
				sol, err := in.P.SolveWithOptions(opts)
				if err != nil {
					b.Fatal(err)
				}
				if sol.Status != lp.Optimal {
					b.Fatalf("%s: status %v", in.Name(), sol.Status)
				}
			}
		})
	}
}

func BenchmarkLPSolveDense(b *testing.B)    { benchBackend(b, lp.Options{}.Dense()) }
func BenchmarkLPSolveSparseLU(b *testing.B) { benchBackend(b, lp.Options{}) }
