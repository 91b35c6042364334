package lp

import (
	"time"

	"pop/internal/obs"
)

// bookSolve records solve-level metrics on o's registry. Handles resolve
// through the registry's read-locked lookup once per solve — never per
// pivot — so the metrics cost stays invisible next to the solve itself.
func (s *simplex) bookSolve(o *obs.Observer, sol *Solution, dur time.Duration) {
	o.Counter("pop_lp_solves_total", "completed LP solves").Inc()
	o.Histogram("pop_lp_solve_seconds", "LP solve wall time").Observe(dur.Seconds())
	o.Counter("pop_lp_pivots_total", "simplex pivots across all solves").Add(int64(sol.Iterations))
	o.Counter("pop_lp_dual_pivots_total", "dual simplex pivots across all solves").Add(int64(sol.DualPivots))
	o.Counter("pop_lp_refactors_total", "mid-solve basis refactorizations").Add(int64(s.refactors))
	o.Counter("pop_lp_ft_updates_total", "Forrest–Tomlin basis updates absorbed in place").Add(int64(s.ftUpdates))
	o.Counter("pop_lp_ft_rejects_total", "Forrest–Tomlin updates rejected as unstable").Add(int64(s.ftRejects))
	o.Counter("pop_lp_drift_refactors_total", "refactorizations triggered by measured ftran residual drift").Add(int64(s.driftRefactors))
	o.Counter("pop_lp_fill_refactors_total", "refactorizations triggered by U fill growth").Add(int64(s.fillRefactors))
	o.Counter("pop_lp_price_refreshes_total", "full re-pricings of the maintained reduced costs").Add(int64(s.priceRefreshes))
	o.Counter("pop_lp_price_overturns_total", "Optimal/Unbounded verdicts on maintained reduced costs that a fresh re-pricing overturned").Add(int64(s.priceOverturns))
	o.Counter("pop_lp_price_ties_total", "entering columns chosen by Dantzig's tie-break toward the sparsest column").Add(int64(s.priceTies))
	if sol.WarmStarted {
		o.Counter("pop_lp_warm_solves_total", "solves that started from a warm basis").Inc()
		if sol.Status == Infeasible {
			// Only the dual phase's certified ray ends a warm solve
			// Infeasible: a warm start skips phase 1, the one other source.
			o.Counter("pop_lp_infeasible_certified_total", "Infeasible verdicts of the dual phase whose ray certificate checked out").Inc()
		}
	} else if s.opts.WarmBasis != nil {
		o.Counter("pop_lp_cold_fallbacks_total", "warm starts rejected in favour of a cold phase 1").Inc()
	}
	if s.fellBack {
		o.Counter("pop_lp_dense_fallbacks_total", "mid-solve SparseLU-to-Dense backend fallbacks").Inc()
	}
}
