package gavelsim

import (
	"testing"

	"pop/internal/cluster"
	"pop/internal/lp"
	"pop/internal/online"
)

// TestRunOnlineDrivesEngine runs the simulator with the incremental engine
// as the round-loop driver: the simulation must complete, the engine must
// see every round, and the arrival/departure churn must have produced
// cheap (clean-skipping or warm-started) rounds.
func TestRunOnlineDrivesEngine(t *testing.T) {
	cfg := Config{
		Cluster:            cluster.NewCluster(6, 6, 6),
		NumJobs:            16,
		ArrivalRatePerHour: 6,
		RoundSeconds:       360,
		Seed:               5,
	}
	eng, err := online.NewClusterEngine(cfg.Cluster, online.MaxMinFairness, online.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, eng.Step)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != cfg.NumJobs {
		t.Fatalf("completed %d/%d jobs", res.Completed, cfg.NumJobs)
	}
	st := eng.Stats()
	if st.Rounds != res.PolicyCalls {
		t.Fatalf("engine rounds %d != policy calls %d", st.Rounds, res.PolicyCalls)
	}
	if st.SkippedClean == 0 && st.WarmHits == 0 {
		t.Fatal("online run never skipped a clean sub-problem nor warm-started one")
	}
	if st.Departures == 0 {
		t.Fatal("completions never reached the engine as departures")
	}
}

// TestRunOnlineMatchesBatchPOPShape: the engine's end-to-end metrics must
// be in the same ballpark as the batch POP policy's — the online path is an
// optimization, not a different scheduler.
func TestRunOnlineMatchesBatchPOPShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := Config{
		Cluster:      cluster.NewCluster(6, 6, 6),
		NumJobs:      12,
		AllAtOnce:    true,
		RoundSeconds: 360,
		Seed:         7,
	}
	eng, err := online.NewClusterEngine(cfg.Cluster, online.MinMakespan, online.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(cfg, eng.Step)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Run(cfg, func(js []cluster.Job, c cluster.Cluster) (*cluster.Allocation, error) {
		return cluster.MinMakespan(js, c, lp.Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if on.Completed != batch.Completed {
		t.Fatalf("online completed %d, batch %d", on.Completed, batch.Completed)
	}
	// POP-k trails the exact optimum but must stay within 2x on makespan.
	if on.MakespanHours > 2*batch.MakespanHours {
		t.Fatalf("online makespan %.2fh vs exact %.2fh", on.MakespanHours, batch.MakespanHours)
	}
}
