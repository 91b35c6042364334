package lp_test

import (
	"testing"

	"pop/internal/lp"
	"pop/internal/lp/gen"
	"pop/internal/obs"
)

// TestRefactorMatchesReferenceOnGenFamilies runs the refactor oracle check
// along solves of every lp/gen family. Large instances
// are left to the allocation-shaped cases of TestRefactorMatchesReference,
// which reach m ≈ 9 600 without a minutes-long solve.
func TestRefactorMatchesReferenceOnGenFamilies(t *testing.T) {
	for _, in := range gen.All(1) {
		if in.Size == gen.Large || testing.Short() && in.Size != gen.Small {
			continue
		}
		lp.CheckRefactorOracle(t, in.Name(), in.P, lp.Options{})
	}
}

// TestRefactorTelemetry: every reinvert lands in the lp.refactor histogram
// (the same call site as the trace span) and the factor's fill is exported.
func TestRefactorTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	o := &obs.Observer{Metrics: reg}
	p := gen.Cluster(gen.Small, 1)
	sol, err := p.SolveWithOptions(lp.Options{Obs: o}.ReinvertEvery(8))
	if err != nil || sol.Status != lp.Optimal {
		t.Fatalf("solve: %v, %v", sol, err)
	}
	refactors := o.Counter("pop_lp_refactors_total", "").Value()
	if refactors == 0 {
		t.Fatal("no refactorization in a 73-pivot solve refactoring every 8")
	}
	if n := o.Histogram("pop_lp_refactor_seconds", "").Count(); n != refactors {
		t.Fatalf("pop_lp_refactor_seconds has %d observations, pop_lp_refactors_total = %d", n, refactors)
	}
	if nnz := o.Gauge("pop_lp_factor_nnz", "").Value(); nnz < float64(p.NumConstraints()) {
		t.Fatalf("pop_lp_factor_nnz = %v, below the factor's own diagonal", nnz)
	}
}
