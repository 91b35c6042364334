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

// restoreTarget is an engine with two solved rounds of state, on a
// three-type pool, for the refusal tests to restore into.
func restoreTarget(t testing.TB) *ClusterEngine {
	c := cluster.NewCluster(4, 4, 4)
	e := NewClusterEngine(c, Options{Seed: 3})
	rnd := rand.New(rand.NewSource(3))
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
// the restored one — the capacity change that rescales carried prices, so
// it goes first — and then one on the restored pool itself.
func restoreRounds(t testing.TB, e *ClusterEngine) {
	c := e.c
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
// negative or infinite GPU count, or whose price vector is not one finite,
// ≥ 0 price per GPU type, is refused and leaves the engine as it was, and
// the rounds after it run.
func TestRestoreRefusesCorruptSnapshot(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	pool := []float64{4, 4, 4}
	for _, tc := range []struct {
		name        string
		gpus, price []float64
	}{
		{"short price", pool, []float64{1, 2}},
		{"long price", pool, []float64{1, 2, 3, 4}},
		{"price for the engine's pool is short", nil, []float64{1, 2}},
		{"NaN price", pool, []float64{1, nan, 1}},
		{"negative price", pool, []float64{1, -1, 1}},
		{"infinite price", pool, []float64{inf, 1, 1}},
		{"NaN gpus", []float64{4, nan, 4}, nil},
		{"negative gpus", []float64{4, -4, 4}, []float64{1, 1, 1}},
		{"infinite gpus", []float64{inf, 4, 4}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := restoreTarget(t)
			before := snapshotBytes(t, e)
			st := e.Snapshot()
			st.GPUs, st.Price = tc.gpus, tc.price
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

// FuzzPriceRestore feeds arbitrary bytes to RestoreBytes, then runs a round
// on a grown pool and one on the restored pool. Nothing may panic, and a
// refused snapshot must leave Snapshot() byte for byte as it was.
func FuzzPriceRestore(f *testing.F) {
	donor := restoreTarget(f)
	f.Add(snapshotBytes(f, donor))
	f.Add([]byte(`{"policy":"max-min-fairness","gpus":[4,4,4],"jobs":[],"price":[1,2]}`))
	f.Add([]byte(`{"policy":"max-min-fairness","gpus":[4,-1,4],"jobs":[]}`))
	f.Add([]byte(`{"policy":"max-min-fairness","gpus":[2,3],"jobs":[{"ID":5,"Throughput":[1,2],"Weight":1,"Scale":1,"NumSteps":9}],"price":[0,0]}`))
	f.Add([]byte(`{"policy":"max-min-fairness","jobs":[{"ID":1,"Throughput":[1,2,3],"Weight":1,"Scale":1}],"price":[1,1,-3]}`))
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
