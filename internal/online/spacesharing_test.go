package online

import (
	"math"
	"math/rand"
	"testing"

	"pop/internal/cluster"
	"pop/internal/lp"
)

// TestSpaceSharingEngineMatchesColdFullSolve is the acceptance-criterion
// test for the pair-block layout: across randomized delta sequences
// (arrivals, departures, weight changes), the warm incremental space-sharing
// engine must match a cold full solve (same partitions, no warm start) to
// 1e-6 on the objective, every round.
func TestSpaceSharingEngineMatchesColdFullSolve(t *testing.T) {
	sequences := 20
	rounds := 4
	if testing.Short() {
		sequences = 6
	}
	c := cluster.NewCluster(10, 10, 10)
	pool := cluster.GenerateJobs(64, 31, 0.2)
	totalWarmHits := 0
	for seq := 0; seq < sequences; seq++ {
		rng := rand.New(rand.NewSource(int64(7000 + seq)))
		warm, err := NewClusterEngine(c, SpaceSharing, Options{K: 3}, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := NewClusterEngine(c, SpaceSharing, Options{K: 3}, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		live := map[int]cluster.Job{}
		nextID := 0
		for b := 0; b < 18; b++ {
			j := pool[rng.Intn(len(pool))]
			j.ID = nextID
			nextID++
			live[j.ID] = j
			warm.Upsert(j)
			cold.Upsert(j)
		}
		for round := 0; round < rounds; round++ {
			driveRandomDeltas(rng, []*ClusterEngine{warm, cold}, pool, live, &nextID)
			if err := warm.Solve(); err != nil {
				t.Fatalf("seq %d round %d warm: %v", seq, round, err)
			}
			cold.MarkAllDirty()
			if err := cold.Solve(); err != nil {
				t.Fatalf("seq %d round %d cold: %v", seq, round, err)
			}
			if w, cobj := warm.Objective(), cold.Objective(); !approxEq(w, cobj, 1e-6) {
				t.Fatalf("seq %d round %d: warm objective %.12g != cold %.12g", seq, round, w, cobj)
			}
		}
		totalWarmHits += warm.Stats().WarmHits
	}
	if totalWarmHits == 0 {
		t.Fatal("space-sharing warm engine never actually warm-started; the pair-block splice path is dead")
	}
}

// TestSpaceSharingEngineFeasibleAndPaired: the composed allocation respects
// time budgets and capacities, actually contains shared slots, and tracks a
// shrinking active set.
func TestSpaceSharingEngineFeasibleAndPaired(t *testing.T) {
	c := cluster.NewCluster(8, 8, 8)
	e, err := NewClusterEngine(c, SpaceSharing, Options{K: 2, Parallel: true}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	jobs := cluster.GenerateJobs(20, 41, 0.25)
	alloc, err := e.Step(jobs, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.VerifyFeasible(jobs, c, alloc, 1e-6); err != nil {
		t.Fatal(err)
	}
	shared := 0
	for _, pr := range alloc.Pairs {
		if pr.J2 >= 0 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no shared slots in the space-sharing allocation")
	}
	if alloc.X != nil {
		t.Fatal("space-sharing allocation should use Pairs/PairX, not X")
	}

	// Shrink the active set; the composed allocation must track it, and
	// departed jobs' slots must vanish.
	alloc, err = e.Step(jobs[:9], c)
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.EffThr) != 9 {
		t.Fatalf("allocation has %d rows, want 9", len(alloc.EffThr))
	}
	if err := cluster.VerifyFeasible(jobs[:9], c, alloc, 1e-6); err != nil {
		t.Fatal(err)
	}
	keep := map[int]bool{}
	for _, j := range jobs[:9] {
		keep[j.ID] = true
	}
	for _, pr := range alloc.Pairs {
		if !keep[pr.J1] || (pr.J2 >= 0 && !keep[pr.J2]) {
			t.Fatalf("stale slot %v survived the departures", pr)
		}
	}
}

// TestSpaceSharingScaleFlipRelayouts: a job whose Scale changes between 1
// and >1 gains/loses pair eligibility — the layout changes shape without any
// arrival or departure, exercising the mid-layout block splice.
func TestSpaceSharingScaleFlipRelayouts(t *testing.T) {
	c := cluster.NewCluster(6, 6, 6)
	warm, err := NewClusterEngine(c, SpaceSharing, Options{K: 1}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewClusterEngine(c, SpaceSharing, Options{K: 1}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	jobs := cluster.GenerateJobs(10, 13, 0)
	for _, j := range jobs {
		warm.Upsert(j)
		cold.Upsert(j)
	}
	step := func() {
		t.Helper()
		if err := warm.Solve(); err != nil {
			t.Fatal(err)
		}
		cold.MarkAllDirty()
		if err := cold.Solve(); err != nil {
			t.Fatal(err)
		}
		if w, cobj := warm.Objective(), cold.Objective(); !approxEq(w, cobj, 1e-6) {
			t.Fatalf("warm objective %.12g != cold %.12g", w, cobj)
		}
	}
	step()
	for flip := 0; flip < 3; flip++ {
		j := jobs[4]
		if math.Mod(float64(flip), 2) == 0 {
			j.Scale = 2 // leaves every pair containing it
		}
		warm.Upsert(j)
		cold.Upsert(j)
		step()
	}
}
