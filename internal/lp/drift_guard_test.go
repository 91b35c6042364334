package lp_test

import (
	"bytes"
	"testing"

	"pop/internal/lp"
	"pop/internal/lp/gen"
	"pop/internal/obs"
)

// TestNumericalDriftGuard is the drift budget for the Forrest–Tomlin update
// path: on the case-study-shaped gen instances, solves on FT-updated sparse
// factors and on the dense reference inverse must return the same statuses
// and objectives to 1e-6, and the FT solutions must satisfy the original
// constraints to the same residual bound — so in-place U modification never
// trades correctness for its per-pivot win. The FT run carries a metrics
// registry, and the guard also asserts the refactor/update and pricing
// counters actually export, which is what popserver's /metrics surfaces, and
// that full re-pricings are fewer than pivots.
//
// Skipped under -short: it re-solves every small+medium instance twice.
func TestNumericalDriftGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("the FT-vs-dense numerical drift guard re-solves every small and medium gen instance twice")
	}
	reg := obs.NewRegistry()
	o := &obs.Observer{Metrics: reg}
	for _, in := range gen.All(1) {
		if in.Size == gen.Large {
			continue // the large trio triples runtime without adding coverage
		}
		ft, err := in.P.Clone().SolveWithOptions(lp.Options{Obs: o})
		if err != nil {
			t.Fatalf("%s ft: %v", in.Name(), err)
		}
		dense, err := in.P.Clone().SolveWithOptions(lp.Options{}.Dense())
		if err != nil {
			t.Fatalf("%s dense: %v", in.Name(), err)
		}
		if ft.Status != dense.Status {
			t.Fatalf("%s: status %v (ft) vs %v (dense)", in.Name(), ft.Status, dense.Status)
		}
		if ft.Status != lp.Optimal {
			t.Fatalf("%s: status %v", in.Name(), ft.Status)
		}
		if !approxEqF(ft.Objective, dense.Objective, 1e-6) {
			t.Fatalf("%s: obj %.12g (ft) vs %.12g (dense)", in.Name(), ft.Objective, dense.Objective)
		}
		if err := in.P.CheckFeasible(ft.X, 1e-6); err != nil {
			t.Fatalf("%s: ft solution residual out of bounds: %v", in.Name(), err)
		}
	}

	// The counters the FT path books must reach the Prometheus export.
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	for _, series := range []string{
		"pop_lp_refactors_total",
		"pop_lp_ft_updates_total",
		"pop_lp_price_refreshes_total",
		"pop_lp_price_overturns_total",
		"pop_lp_price_ties_total",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(series)) {
			t.Fatalf("metrics export missing %s", series)
		}
	}
	if o.Counter("pop_lp_ft_updates_total", "").Value() == 0 {
		t.Fatal("FT runs over the gen instances booked zero FT updates")
	}
	// Pricing is incremental: a full re-pricing is the exception, not the
	// per-pivot rule.
	refreshes := o.Counter("pop_lp_price_refreshes_total", "").Value()
	if pivots := o.Counter("pop_lp_pivots_total", "").Value(); refreshes >= pivots {
		t.Fatalf("%d full re-pricings over %d pivots: reduced costs are not maintained", refreshes, pivots)
	}
}
