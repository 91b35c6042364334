package shard

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pop/internal/cluster"
	"pop/internal/online"
)

// comparableStats strips the wall-clock fields, which no two engines share.
func comparableStats(b *EngineBundle) any {
	if st, ok := b.Stats().(online.Stats); ok {
		st.BuildNs, st.SolveNs = 0, 0
		return st
	}
	return b.Stats()
}

// TestHeldRoundMatchesStep: an engine driven the way the serving path drives
// it — Upsert and Remove for the round's mutations, then Allocate over the
// held set — and a twin handed each round's whole population through Step
// must agree exactly: identical allocations bit for bit, identical counters.
// Half way through, both are replaced by fresh engines restored from the
// held twin's snapshot, so the equivalence also covers a restart.
func TestHeldRoundMatchesStep(t *testing.T) {
	for _, tc := range []struct {
		policy string
		k      int
	}{{"price", 1}, {"maxmin", 3}, {"makespan", 2}, {"spacesharing", 2}} {
		t.Run(tc.policy, func(t *testing.T) {
			cfg := EngineConfig{Policy: tc.policy, K: tc.k}
			c := testCluster()
			newBundle := func() *EngineBundle {
				b, err := NewEngine(c, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			held, step := newBundle(), newBundle()
			rnd := rand.New(rand.NewSource(21))
			live := map[int]cluster.Job{}
			nextID := 0
			for id := 0; id < 14; id++ {
				live[id] = randJob(id, rnd)
				nextID++
			}
			prev := map[int]cluster.Job{}
			const rounds = 16
			for round := 1; round <= rounds; round++ {
				if round > 1 {
					churn(live, &nextID, rnd)
				}
				if round == rounds/2 {
					// A pool change too: the price engine rescales its
					// carried prices, the LP engines dirty every partition.
					c = cluster.NewCluster(10, 12, 14)
				}
				active := sortedJobs(live)

				// The serving path's mutation batch: upserts in ascending-id
				// order, then removes — what a RoundRequest carries.
				for _, j := range active {
					if old, ok := prev[j.ID]; !ok || !old.Equal(j) {
						held.Engine.Upsert(j)
					}
				}
				var gone []int
				for id := range prev {
					if _, ok := live[id]; !ok {
						gone = append(gone, id)
					}
				}
				sort.Ints(gone)
				for _, id := range gone {
					held.Engine.Remove(id)
				}
				jobs, got, err := held.Engine.Allocate(c)
				if err != nil {
					t.Fatalf("round %d: held round: %v", round, err)
				}
				want, err := step.Engine.Step(active, c)
				if err != nil {
					t.Fatalf("round %d: step: %v", round, err)
				}

				if len(jobs) != len(active) {
					t.Fatalf("round %d: held engine returned %d jobs, %d are live", round, len(jobs), len(active))
				}
				for i, j := range jobs {
					if j.ID != active[i].ID {
						t.Fatalf("round %d: held row %d is job %d, want ascending-id job %d", round, i, j.ID, active[i].ID)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: held-state round and Step(active) allocate differently:\nheld %+v\nstep %+v", round, got, want)
				}
				if hs, ss := comparableStats(held), comparableStats(step); !reflect.DeepEqual(hs, ss) {
					t.Fatalf("round %d: counters diverged:\nheld %+v\nstep %+v", round, hs, ss)
				}

				prev = map[int]cluster.Job{}
				for id, j := range live {
					prev[id] = j
				}
				if round == rounds/2 {
					raw, err := held.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					held, step = newBundle(), newBundle()
					for _, b := range []*EngineBundle{held, step} {
						if err := b.Restore(raw); err != nil {
							t.Fatalf("restore: %v", err)
						}
					}
				}
			}
		})
	}
}

// TestStepAnswersInActiveOrder: Step accepts any order and answers in it.
// Every row must be its own job's (a row's throughput is that job's
// throughputs dotted with it, and no two jobs share throughputs); the price
// engine, whose solve does not depend on arrival order, must also return
// exactly the rows a twin computes for the id-ordered set, permuted.
func TestStepAnswersInActiveOrder(t *testing.T) {
	for _, policy := range []string{"price", "maxmin"} {
		rnd := rand.New(rand.NewSource(22))
		active := make([]cluster.Job, 12)
		for i := range active {
			active[i] = randJob(i, rnd)
		}
		perm := rnd.Perm(len(active))
		shuffled := make([]cluster.Job, len(active))
		for to, from := range perm {
			shuffled[to] = active[from]
		}
		var allocs [2]*cluster.Allocation
		for k, set := range [][]cluster.Job{active, shuffled} {
			b, err := NewEngine(testCluster(), EngineConfig{Policy: policy, K: 2})
			if err != nil {
				t.Fatal(err)
			}
			if allocs[k], err = b.Engine.Step(set, testCluster()); err != nil {
				t.Fatal(err)
			}
		}
		got := allocs[1]
		if err := cluster.VerifyFeasible(shuffled, testCluster(), got, 1e-6); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		for to, from := range perm {
			if thr := cluster.EffectiveThroughput(shuffled[to], got.X[to]); thr != got.EffThr[to] || thr <= 0 {
				t.Fatalf("%s: row %d is not job %d's: throughput %g, row gives %g", policy, to, shuffled[to].ID, got.EffThr[to], thr)
			}
			if policy == "price" && !reflect.DeepEqual(got.X[to], allocs[0].X[from]) {
				t.Fatalf("%s: shuffled Step row %d (job %d) differs from the id-ordered solve", policy, to, shuffled[to].ID)
			}
		}
	}
}
