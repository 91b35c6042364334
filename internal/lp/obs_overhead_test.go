package lp_test

import (
	"os"
	"testing"
	"time"

	"pop/internal/lp"
	"pop/internal/lp/gen"
	"pop/internal/obs"
)

// TestObsOverheadGuard is the CI overhead budget for the telemetry hooks:
// solving with a full Observer (metrics registry + trace) must stay close
// to the Obs=nil path. The acceptance budget is 2% on the disabled path
// (one pointer check per solve/phase); this guard runs the *enabled* path
// and still allows only modest slack, so a hook leaking into the pivot
// loop — the only way to regress by whole factors — fails loudly. The
// threshold is generous (1.5x on best-of-N) because CI wall clocks are
// noisy; real budgets are tracked by the repository benchmark (bench/).
//
// Gated behind OBS_OVERHEAD_GUARD=1 so the default test run stays fast and
// timing-free.
func TestObsOverheadGuard(t *testing.T) {
	if os.Getenv("OBS_OVERHEAD_GUARD") != "1" {
		t.Skip("set OBS_OVERHEAD_GUARD=1 to run the telemetry overhead guard")
	}
	in := gen.Cluster(gen.Medium, 1)

	solve := func(o *obs.Observer) time.Duration {
		start := time.Now()
		sol, err := in.SolveWithOptions(lp.Options{Obs: o})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != lp.Optimal {
			t.Fatalf("status %v", sol.Status)
		}
		return time.Since(start)
	}

	obsv := &obs.Observer{Metrics: obs.NewRegistry(), Trace: obs.NewTrace()}
	const reps = 5
	bare, full := time.Duration(1<<62), time.Duration(1<<62)
	// Interleave the arms so CPU frequency drift hits both equally; keep
	// the best of each, which is the least-noisy estimator on a shared box.
	for i := 0; i < reps; i++ {
		if d := solve(nil); d < bare {
			bare = d
		}
		if d := solve(obsv); d < full {
			full = d
		}
	}
	t.Logf("bare=%v full=%v ratio=%.3f", bare, full, float64(full)/float64(bare))
	if float64(full) > 1.5*float64(bare) {
		t.Fatalf("telemetry overhead %.2fx exceeds guard (bare=%v full=%v): a hook is on the pivot path",
			float64(full)/float64(bare), bare, full)
	}
}
