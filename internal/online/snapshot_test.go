package online

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"pop/internal/cluster"
)

func snapJob(id int, rnd *rand.Rand) cluster.Job {
	return cluster.Job{
		ID:         id,
		Throughput: []float64{1 + rnd.Float64(), 2 + 2*rnd.Float64(), 3 + 3*rnd.Float64()},
		Weight:     1,
		Scale:      float64(1 + rnd.Intn(2)),
		NumSteps:   1000,
		Priority:   1,
	}
}

// TestSnapshotRestoreRoundTrip: a restored engine reproduces the donor's
// partitions and, stepped on the same active set, the same allocation —
// and its first solves warm-start from the persisted bases.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	c := cluster.NewCluster(16, 16, 16)
	donor, err := NewClusterEngine(c, MaxMinFairness, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(42))
	jobs := make([]cluster.Job, 0, 24)
	for id := 0; id < 24; id++ {
		jobs = append(jobs, snapJob(id, rnd))
	}
	// A few churn rounds so the donor carries non-trivial warm state.
	for r := 0; r < 3; r++ {
		if _, err := donor.Step(jobs[:18+2*r], c); err != nil {
			t.Fatal(err)
		}
	}
	want, err := donor.Step(jobs, c)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := donor.Snapshot().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewClusterEngine(c, MaxMinFairness, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreBytes(raw); err != nil {
		t.Fatal(err)
	}
	if got, wantN := len(restored.Jobs()), len(donor.Jobs()); got != wantN {
		t.Fatalf("restored %d jobs, want %d", got, wantN)
	}
	if restored.Stats() != donor.Stats() {
		t.Fatalf("restored stats %+v != donor stats %+v", restored.Stats(), donor.Stats())
	}

	statsBefore := restored.Stats()
	got, err := restored.Step(jobs, c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if d := math.Abs(got.EffThr[i] - want.EffThr[i]); d > 1e-6 {
			t.Fatalf("job %d: restored engine allocates %g, donor %g", jobs[i].ID, got.EffThr[i], want.EffThr[i])
		}
		for k := range want.X[i] {
			if d := math.Abs(got.X[i][k] - want.X[i][k]); d > 1e-6 {
				t.Fatalf("job %d: x[%d] diverged by %g after restore", jobs[i].ID, k, d)
			}
		}
	}
	d := restored.Stats()
	if d.WarmAttempts == statsBefore.WarmAttempts {
		t.Fatal("restored engine never warm-started from the snapshot bases")
	}
}

// TestRestoredSeedsSurviveArrival: a job arriving at a restored engine
// before its first round changes one sub-problem's layout; that
// sub-problem's restored basis is carried onto the new layout like a live
// model's, so every sub-problem of the first round still starts warm, under
// both layouts (one block per job, and the space-sharing pair blocks).
func TestRestoredSeedsSurviveArrival(t *testing.T) {
	for _, policy := range []ClusterPolicy{MaxMinFairness, SpaceSharing} {
		c := cluster.NewCluster(16, 16, 16)
		donor, err := NewClusterEngine(c, policy, Options{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		rnd := rand.New(rand.NewSource(7))
		var jobs []cluster.Job
		for id := 0; id < 25; id++ {
			j := snapJob(id, rnd)
			j.Scale = float64(1 + id%2) // single-GPU jobs pair up under space sharing
			jobs = append(jobs, j)
		}
		if _, err := donor.Step(jobs[:24], c); err != nil {
			t.Fatal(err)
		}
		restored, err := NewClusterEngine(c, policy, Options{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.Restore(donor.Snapshot()); err != nil {
			t.Fatal(err)
		}
		before := restored.Stats()
		restored.Upsert(jobs[24])
		if err := restored.Solve(); err != nil {
			t.Fatal(err)
		}
		st := restored.Stats()
		solves, hits := st.SubSolves-before.SubSolves, st.WarmHits-before.WarmHits
		if solves != 3 || hits != solves {
			t.Errorf("%v: first round after restore and an arrival: %d of %d sub-solves started warm", policy, hits, solves)
		}
	}
}

// TestSnapshotRestoreRejectsMismatch: wrong policy or partition shape must
// not corrupt the engine.
func TestSnapshotRestoreRejectsMismatch(t *testing.T) {
	c := cluster.NewCluster(8, 8, 8)
	donor, err := NewClusterEngine(c, MaxMinFairness, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(7))
	jobs := []cluster.Job{snapJob(0, rnd), snapJob(1, rnd), snapJob(2, rnd)}
	if _, err := donor.Step(jobs, c); err != nil {
		t.Fatal(err)
	}
	st := donor.Snapshot()

	other, err := NewClusterEngine(c, MinMakespan, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(st); err == nil {
		t.Fatal("policy-mismatched restore succeeded")
	}
	smaller, err := NewClusterEngine(c, MaxMinFairness, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := smaller.Restore(st); err == nil {
		t.Fatal("K-mismatched restore succeeded")
	}
	if _, err := smaller.Step(jobs, c); err != nil {
		t.Fatalf("engine unusable after rejected restore: %v", err)
	}
}

// TestSnapshotRestoreCorruptPlacement: a snapshot whose partitions reference
// unknown jobs, double-place a job or leave one out is rejected, and leaves
// the engine as it was.
func TestSnapshotRestoreCorruptPlacement(t *testing.T) {
	donor := restoreTarget(t)
	unknown := donor.Snapshot()
	unknown.Partitions[0] = append(unknown.Partitions[0], 999)
	double := donor.Snapshot()
	double.Partitions[0] = []int{0, 1}
	double.Partitions[1] = []int{1}
	missing := donor.Snapshot()
	missing.Partitions[1] = nil
	for name, st := range map[string]*ClusterState{"unknown": unknown, "double": double, "missing": missing} {
		e := restoreTarget(t)
		before := snapshotBytes(t, e)
		if err := e.Restore(st); err == nil {
			t.Fatalf("%s: corrupt placement restored cleanly", name)
		}
		if after := snapshotBytes(t, e); !bytes.Equal(after, before) {
			t.Fatalf("%s: refused restore changed the engine:\n%s\n%s", name, before, after)
		}
	}
}

// restoreTarget is a K = 2 engine with two solved rounds of state, on a
// three-type pool, for the refusal tests to restore into.
func restoreTarget(t testing.TB) *ClusterEngine {
	c := cluster.NewCluster(8, 8, 8)
	e, err := NewClusterEngine(c, MaxMinFairness, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(8))
	jobs := []cluster.Job{snapJob(0, rnd), snapJob(1, rnd), snapJob(2, rnd)}
	for r := 0; r < 2; r++ {
		if _, err := e.Step(jobs[:2+r], c); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func snapshotBytes(t testing.TB, e *ClusterEngine) []byte {
	raw, err := e.Snapshot().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// restoreRounds runs a round on a pool with one GPU more of each type than
// the restored one, then one on the restored pool itself.
func restoreRounds(t testing.TB, e *ClusterEngine) {
	c := e.Cluster()
	grown := cluster.Cluster{TypeNames: c.TypeNames, NumGPUs: make([]float64, len(c.NumGPUs))}
	for i, v := range c.NumGPUs {
		grown.NumGPUs[i] = v + 1
	}
	for _, pool := range []cluster.Cluster{grown, c} {
		if _, _, err := e.Allocate(pool); err != nil {
			t.Logf("round on %v: %v", pool.NumGPUs, err)
		}
	}
}

// TestRestoreRefusesCorruptSnapshot: a snapshot whose pool holds a NaN,
// negative or infinite GPU count is refused and leaves the engine as it
// was, and the rounds after it run.
func TestRestoreRefusesCorruptSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name string
		gpus []float64
	}{
		{"NaN gpus", []float64{8, math.NaN(), 8}},
		{"negative gpus", []float64{8, -8, 8}},
		{"infinite gpus", []float64{math.Inf(1), 8, 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := restoreTarget(t)
			before := snapshotBytes(t, e)
			st := e.Snapshot()
			st.GPUs = tc.gpus
			err := e.Restore(st)
			after := snapshotBytes(t, e)
			restoreRounds(t, e)
			if err == nil {
				t.Fatal("corrupt snapshot restored")
			}
			if !bytes.Equal(after, before) {
				t.Fatalf("refused restore changed the engine:\n%s\n%s", before, after)
			}
		})
	}
}

// FuzzClusterRestore feeds arbitrary bytes to RestoreBytes, then runs a
// round on a grown pool and one on the restored pool. Nothing may panic,
// and a refused snapshot must leave Snapshot() byte for byte as it was.
func FuzzClusterRestore(f *testing.F) {
	donor := restoreTarget(f)
	f.Add(snapshotBytes(f, donor))
	f.Add([]byte(`{"policy":"max-min-fairness","k":2,"gpus":[4,-1,4],"jobs":[],"partitions":[[],[]]}`))
	f.Add([]byte(`{"policy":"max-min-fairness","k":2,"gpus":[2,3],"jobs":[{"ID":5,"Throughput":[1,2],"Weight":1,"Scale":1,"NumSteps":9}],"partitions":[[5],[]]}`))
	f.Add([]byte(`{"policy":"max-min-fairness","k":2,"jobs":[{"ID":1,"Throughput":[1,2,3],"Weight":1,"Scale":1}],"partitions":[[1],[1]]}`))
	f.Add([]byte(`{"policy":"max-min-fairness","k":2,"jobs":[{"ID":1,"Throughput":[1,2,3],"Weight":1,"Scale":1}],"partitions":[[1],[]],"bases":[{"VarStatus":[3,2,9],"SlackStatus":[0]},null]}`))
	f.Add([]byte(`{"policy":"max-min-fairness"`))
	f.Fuzz(func(t *testing.T, data []byte) {
		e := restoreTarget(t)
		before := snapshotBytes(t, e)
		if err := e.RestoreBytes(data); err != nil {
			if after := snapshotBytes(t, e); !bytes.Equal(after, before) {
				t.Fatalf("refused restore (%v) changed the engine:\n%s\n%s", err, before, after)
			}
		}
		restoreRounds(t, e)
	})
}
