package price

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
		Scale:      1,
		NumSteps:   1000,
		Priority:   1,
	}
}

// TestSnapshotRestoreRoundTrip: a restored price engine carries the donor's
// price vector, so its first round solves warm and lands on the same
// allocation.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	c := cluster.NewCluster(16, 16, 16)
	donor := NewClusterEngine(c, Options{Seed: 17})
	rnd := rand.New(rand.NewSource(17))
	jobs := make([]cluster.Job, 0, 30)
	for id := 0; id < 30; id++ {
		jobs = append(jobs, snapJob(id, rnd))
	}
	for r := 0; r < 3; r++ {
		if _, err := donor.Step(jobs[:24+2*r], c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := donor.Step(jobs, c); err != nil {
		t.Fatal(err)
	}

	raw, err := donor.Snapshot().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewClusterEngine(c, Options{Seed: 17})
	if err := restored.RestoreBytes(raw); err != nil {
		t.Fatal(err)
	}
	if restored.NumJobs() != donor.NumJobs() {
		t.Fatalf("restored %d jobs, want %d", restored.NumJobs(), donor.NumJobs())
	}
	if restored.Stats() != donor.Stats() {
		t.Fatalf("restored stats %+v != donor stats %+v", restored.Stats(), donor.Stats())
	}

	// Step donor and clone from the identical carried state: the solves are
	// deterministic, so the allocations must agree exactly.
	before := restored.Stats()
	got, err := restored.Step(jobs, c)
	if err != nil {
		t.Fatal(err)
	}
	want, err := donor.Step(jobs, c)
	if err != nil {
		t.Fatal(err)
	}
	after := restored.Stats()
	if after.WarmPriceRounds != before.WarmPriceRounds+1 {
		t.Fatalf("restored engine did not warm-start from the saved prices: %+v -> %+v", before, after)
	}
	for i := range jobs {
		if d := math.Abs(got.EffThr[i] - want.EffThr[i]); d > 1e-6 {
			t.Fatalf("job %d: restored engine allocates %g, donor %g (diff %g)",
				jobs[i].ID, got.EffThr[i], want.EffThr[i], d)
		}
	}
}

// TestSnapshotRestoreRejectsPolicyMismatch: a snapshot naming another
// policy leaves the engine unchanged.
func TestSnapshotRestoreRejectsPolicyMismatch(t *testing.T) {
	c := cluster.NewCluster(8, 8, 8)
	donor := NewClusterEngine(c, Options{Seed: 1})
	rnd := rand.New(rand.NewSource(1))
	if _, err := donor.Step([]cluster.Job{snapJob(0, rnd), snapJob(1, rnd)}, c); err != nil {
		t.Fatal(err)
	}
	raw, err := donor.Snapshot().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.Replace(raw, []byte(`"policy":"max-min-fairness"`), []byte(`"policy":"proportional-fairness"`), 1)
	other := NewClusterEngine(c, Options{Seed: 1})
	if err := other.RestoreBytes(raw); err == nil {
		t.Fatal("policy-mismatched restore succeeded")
	}
	if other.NumJobs() != 0 {
		t.Fatal("rejected restore still installed jobs")
	}
}
