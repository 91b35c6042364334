package online

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pop/internal/cluster"
	"pop/internal/lp"
)

func approxEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

// driveRandomDeltas applies one random round of deltas to both engines
// identically: arrivals, departures, and weight changes.
func driveRandomDeltas(rng *rand.Rand, engines []*ClusterEngine, pool []cluster.Job, live map[int]cluster.Job, nextID *int) {
	ops := 1 + rng.Intn(6)
	for o := 0; o < ops; o++ {
		switch {
		case len(live) == 0 || rng.Float64() < 0.4:
			j := pool[rng.Intn(len(pool))]
			j.ID = *nextID
			*nextID++
			live[j.ID] = j
			for _, e := range engines {
				e.Upsert(j)
			}
		case rng.Float64() < 0.5:
			id := anyKey(rng, live)
			delete(live, id)
			for _, e := range engines {
				e.Remove(id)
			}
		default:
			id := anyKey(rng, live)
			j := live[id]
			j.Weight *= 0.5 + rng.Float64()
			live[id] = j
			for _, e := range engines {
				e.Upsert(j)
			}
		}
	}
}

func anyKey(rng *rand.Rand, m map[int]cluster.Job) int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Deterministic order before the random draw.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys[rng.Intn(len(keys))]
}

// TestClusterEngineMatchesColdFullSolve is the acceptance-criterion test:
// across ≥50 randomized delta sequences, the incremental warm-started
// engine must match a cold full solve (same partitions, no warm start, all
// sub-problems re-solved) to 1e-6 on the objective, every round.
func TestClusterEngineMatchesColdFullSolve(t *testing.T) {
	sequences := 50
	rounds := 4
	if testing.Short() {
		sequences = 12
	}
	c := cluster.NewCluster(12, 12, 12)
	pool := cluster.GenerateJobs(64, 9, 0.2)
	totalWarmHits := 0
	for seq := 0; seq < sequences; seq++ {
		rng := rand.New(rand.NewSource(int64(1000 + seq)))
		warm, err := NewClusterEngine(c, MaxMinFairness, Options{K: 4})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := NewClusterEngine(c, MaxMinFairness, Options{K: 4})
		if err != nil {
			t.Fatal(err)
		}
		live := map[int]cluster.Job{}
		nextID := 0
		// Seed a base workload so sub-problems are non-trivial from round 0.
		for b := 0; b < 24; b++ {
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
		t.Fatal("warm engine never actually warm-started; the incremental path is dead")
	}
}

// TestClusterEngineMatchesBatchPolicy: with one sub-problem the engine's
// first round builds the batch policy's model — cluster.SoloModel or
// cluster.SpaceSharingModel over the same jobs — and solves it cold, so its
// allocation must equal the batch solver's bit for bit: X or Pairs/PairX,
// EffThr, and LPVariables. The degenerate population holds a job with zero
// throughput and one with no steps left, which get all-zero rate rows.
func TestClusterEngineMatchesBatchPolicy(t *testing.T) {
	degenerate := cluster.GenerateJobs(12, 9, 0.2)
	degenerate[3].Throughput = []float64{0, 0, 0}
	degenerate[7].NumSteps = 0
	populations := []struct {
		name string
		jobs []cluster.Job
		c    cluster.Cluster
	}{
		{"30 jobs", cluster.GenerateJobs(30, 1, 0.2), cluster.NewCluster(8, 8, 8)},
		{"14 jobs", cluster.GenerateJobs(14, 5, 0.2), cluster.NewCluster(6, 6, 6)},
		{"degenerate", degenerate, cluster.NewCluster(4, 4, 4)},
	}
	policies := []struct {
		policy ClusterPolicy
		batch  cluster.PolicyFunc
	}{
		{MaxMinFairness, cluster.MaxMinFairness},
		{MinMakespan, cluster.MinMakespan},
		{SpaceSharing, cluster.MaxMinFairnessSpaceSharing},
	}
	sameBits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	sameRows := func(a, b [][]float64) bool { return slices.EqualFunc(a, b, sameBits) }
	for _, pop := range populations {
		for _, pc := range policies {
			t.Run(pop.name+"/"+pc.policy.String(), func(t *testing.T) {
				e, err := NewClusterEngine(pop.c, pc.policy, Options{K: 1})
				if err != nil {
					t.Fatal(err)
				}
				online, err := e.Step(pop.jobs, pop.c)
				if err != nil {
					t.Fatal(err)
				}
				batch, err := pc.batch(pop.jobs, pop.c, lp.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !sameRows(online.X, batch.X) {
					t.Error("X differs")
				}
				if !slices.Equal(online.Pairs, batch.Pairs) || !sameRows(online.PairX, batch.PairX) {
					t.Error("Pairs/PairX differ")
				}
				if !sameBits(online.EffThr, batch.EffThr) {
					t.Error("EffThr differs")
				}
				if online.LPVariables != batch.LPVariables {
					t.Errorf("LPVariables: online %d, batch %d", online.LPVariables, batch.LPVariables)
				}
			})
		}
	}
}

// TestClusterEngineSkipsCleanSubProblems: deltas confined to one
// sub-problem must not re-solve the others.
func TestClusterEngineSkipsCleanSubProblems(t *testing.T) {
	c := cluster.NewCluster(8, 8, 8)
	e, err := NewClusterEngine(c, MaxMinFairness, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	jobs := cluster.GenerateJobs(20, 3, 0)
	for _, j := range jobs {
		e.Upsert(j)
	}
	if err := e.Solve(); err != nil {
		t.Fatal(err)
	}
	base := e.Stats()
	if base.SubSolves != 4 {
		t.Fatalf("first round solved %d sub-problems, want 4", base.SubSolves)
	}

	// One weight change dirties exactly one sub-problem.
	j := jobs[7]
	j.Weight = 3
	e.Upsert(j)
	if err := e.Solve(); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if got := s.SubSolves - base.SubSolves; got != 1 {
		t.Fatalf("after one-job delta, %d sub-problems re-solved, want 1", got)
	}
	if got := s.SkippedClean - base.SkippedClean; got != 3 {
		t.Fatalf("after one-job delta, %d sub-problems skipped, want 3", got)
	}

	// No deltas at all: nothing solves.
	if err := e.Solve(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().SubSolves - s.SubSolves; got != 0 {
		t.Fatalf("idle round re-solved %d sub-problems", got)
	}

	// A capacity change dirties everything.
	e.SetCluster(cluster.NewCluster(8, 8, 16))
	if err := e.Solve(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().SubSolves - e.Stats().Rounds; got < 0 {
		t.Fatal("stats accounting broke")
	}
	if got := e.Stats().SubSolves - s.SubSolves; got != 4 {
		t.Fatalf("after capacity change, %d sub-problems re-solved, want 4", got)
	}
}

// TestStablePartitionInvariants: arrivals go to the least-loaded
// sub-problem; departures never move survivors; updates never migrate.
func TestStablePartitionInvariants(t *testing.T) {
	e, err := NewClusterEngine(cluster.NewCluster(4, 4, 4), MaxMinFairness, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	// upsert submits a job of the given scale (the partitioning load) and
	// reports where the engine keeps it.
	upsert := func(id int, scale float64) int {
		e.Upsert(cluster.Job{ID: id, Throughput: []float64{1, 2, 3}, Weight: 1, Scale: scale})
		return e.partOf[id]
	}
	// Weights chosen so placement is forced: 5 → p0; 3 → p1; 1 → p2;
	// next (1) goes to p2 again (load 2 < 3 < 5).
	if p := upsert(0, 5); p != 0 {
		t.Fatalf("first arrival to %d, want 0", p)
	}
	if p := upsert(1, 3); p != 1 {
		t.Fatalf("second arrival to %d, want 1", p)
	}
	if p := upsert(2, 1); p != 2 {
		t.Fatalf("third arrival to %d, want 2", p)
	}
	if p := upsert(3, 1); p != 2 {
		t.Fatalf("fourth arrival to %d, want 2 (least loaded)", p)
	}
	before := map[int]int{}
	for id, p := range e.partOf {
		before[id] = p
	}
	// Departure: survivors stay put.
	e.Remove(1)
	for id, p := range e.partOf {
		if before[id] != p {
			t.Fatalf("departure moved survivor %d: %d → %d", id, before[id], p)
		}
	}
	// Update: a load change does not migrate, and moves the load with it.
	if p := upsert(0, 0.1); p != 0 {
		t.Fatalf("update migrated client 0 to %d", p)
	}
	if got := e.subs[0].load; !approxEq(got, 0.1, 1e-12) {
		t.Fatalf("partition 0 load %g after the update, want 0.1", got)
	}
	// New arrival lands on the now-emptiest sub-problem (p1, load 0).
	if p := upsert(9, 1); p != 1 {
		t.Fatalf("arrival after departure to %d, want 1", p)
	}
	// Order inside a partition is stable.
	if got := e.subs[2].ids; len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("partition 2 order drifted: %v", got)
	}
}

// TestRebalanceBoundsLoadDrift: with Rebalance on, at most one client moves
// per round, the load spread never widens, and under a static population it
// settles below the lightest member of the heaviest partition — the drift
// bound.
func TestRebalanceBoundsLoadDrift(t *testing.T) {
	e, err := NewClusterEngine(cluster.NewCluster(8, 8, 8), MaxMinFairness, Options{K: 3, Rebalance: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))

	// Build a skew: fill all partitions, then drain two of them by
	// departures so partition loads diverge hard.
	for id, j := range cluster.GenerateJobs(60, 12, 0) {
		j.ID = id
		j.Scale = 0.5 + rng.Float64()
		e.Upsert(j)
	}
	for id := 0; id < 60; id++ {
		if p := e.partOf[id]; p != 0 && rng.Float64() < 0.8 {
			e.Remove(id)
		}
	}

	spread := func() float64 {
		hi, lo := math.Inf(-1), math.Inf(1)
		for _, s := range e.subs {
			hi = math.Max(hi, s.load)
			lo = math.Min(lo, s.load)
		}
		return hi - lo
	}

	prev := spread()
	for round := 0; round < 40; round++ {
		moved := e.stats.Rebalances
		if err := e.Solve(); err != nil {
			t.Fatal(err)
		}
		if e.stats.Rebalances-moved > 1 {
			t.Fatalf("round %d moved %d clients, want ≤ 1", round, e.stats.Rebalances-moved)
		}
		if s := spread(); s > prev+1e-9 {
			t.Fatalf("round %d widened the spread: %g → %g", round, prev, s)
		} else {
			prev = s
		}
	}
	if e.stats.Rebalances == 0 {
		t.Fatal("rebalancer never moved a client off the skew")
	}
	// At the fixpoint the spread is below the lightest member of the
	// heaviest partition (otherwise that member would still move).
	hi := 0
	for p := range e.subs {
		if e.subs[p].load > e.subs[hi].load {
			hi = p
		}
	}
	lightest := math.Inf(1)
	for _, id := range e.subs[hi].ids {
		lightest = math.Min(lightest, e.member(id).Scale)
	}
	if len(e.subs[hi].ids) > 0 && prev > lightest+1e-9 {
		t.Fatalf("spread %g did not settle below the heaviest partition's lightest member %g", prev, lightest)
	}
	// Sanity: partition bookkeeping survived the moves — every job has one
	// partition that lists it, and each partition's load is its members'.
	if len(e.partOf) != e.NumJobs() {
		t.Fatalf("%d placed clients, %d jobs", len(e.partOf), e.NumJobs())
	}
	for id, p := range e.partOf {
		if !slices.Contains(e.subs[p].ids, id) {
			t.Fatalf("client %d claims partition %d but is not a member", id, p)
		}
	}
	for p, s := range e.subs {
		sum := 0.0
		for _, id := range s.ids {
			sum += e.member(id).Scale
		}
		if !approxEq(sum, s.load, 1e-12) {
			t.Fatalf("partition %d load %g, members sum to %g", p, s.load, sum)
		}
	}
}

// TestClusterEngineRebalanceMatchesCold: the drift-bounding moves are
// deterministic, so a warm and a cold engine with Rebalance on take the
// same partition trajectory and must agree on the POP objective.
func TestClusterEngineRebalanceMatchesCold(t *testing.T) {
	c := cluster.NewCluster(12, 12, 12)
	pool := cluster.GenerateJobs(64, 21, 0.2)
	rng := rand.New(rand.NewSource(99))
	warm, err := NewClusterEngine(c, MaxMinFairness, Options{K: 4, Rebalance: true})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewClusterEngine(c, MaxMinFairness, Options{K: 4, Rebalance: true})
	if err != nil {
		t.Fatal(err)
	}
	live := map[int]cluster.Job{}
	nextID := 0
	for b := 0; b < 30; b++ {
		j := pool[rng.Intn(len(pool))]
		j.ID = nextID
		nextID++
		live[j.ID] = j
		warm.Upsert(j)
		cold.Upsert(j)
	}
	for round := 0; round < 8; round++ {
		driveRandomDeltas(rng, []*ClusterEngine{warm, cold}, pool, live, &nextID)
		if err := warm.Solve(); err != nil {
			t.Fatalf("round %d warm: %v", round, err)
		}
		cold.MarkAllDirty()
		if err := cold.Solve(); err != nil {
			t.Fatalf("round %d cold: %v", round, err)
		}
		if w, cobj := warm.Objective(), cold.Objective(); !approxEq(w, cobj, 1e-6) {
			t.Fatalf("round %d: warm objective %.12g != cold %.12g", round, w, cobj)
		}
	}
	if warm.Stats().Rebalances == 0 && cold.Stats().Rebalances == 0 {
		t.Log("note: no rebalance triggered this sequence")
	}
}

// TestClusterEngineAllocationFeasible: the composed allocation must satisfy
// the full cluster's budgets (sub-cluster capacities sum to the original).
func TestClusterEngineAllocationFeasible(t *testing.T) {
	c := cluster.NewCluster(10, 10, 10)
	e, err := NewClusterEngine(c, MinMakespan, Options{K: 3, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	jobs := cluster.GenerateJobs(30, 17, 0.3)
	alloc, err := e.Step(jobs, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.VerifyFeasible(jobs, c, alloc, 1e-6); err != nil {
		t.Fatal(err)
	}
	// Shrink the active set; the composed allocation must track it.
	alloc, err = e.Step(jobs[:11], c)
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.EffThr) != 11 {
		t.Fatalf("allocation has %d rows, want 11", len(alloc.EffThr))
	}
	if err := cluster.VerifyFeasible(jobs[:11], c, alloc, 1e-6); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Departures != 19 {
		t.Fatalf("departures = %d, want 19", st.Departures)
	}
}

func TestEngineOptionValidation(t *testing.T) {
	if _, err := NewClusterEngine(cluster.NewCluster(1, 1, 1), MaxMinFairness, Options{K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := NewClusterEngine(cluster.NewCluster(1, 1, 1), MaxMinFairness, Options{K: -1}); err == nil {
		t.Fatal("K=-1 accepted")
	}
}

// TestOptionsSurface pins the exported Options fields: a cold baseline is
// MarkAllDirty before a round, not an option.
func TestOptionsSurface(t *testing.T) {
	want := []string{"K", "Obs", "Parallel", "Rebalance"}
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Options{})) {
		if f.IsExported() {
			got = append(got, f.Name)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("exported Options fields = %v, want exactly %v", got, want)
	}
}

// TestMarkAllDirtyMeansCold: after warm churn rounds, MarkAllDirty makes the
// next round rebuild and solve all K sub-problems cold — no warm attempt,
// neither from a kept model nor from a restored basis — and the cold round
// lands on the objective of a twin engine that stayed warm.
func TestMarkAllDirtyMeansCold(t *testing.T) {
	const k = 4
	// coldRound runs one MarkAllDirty round on cold and checks it against
	// warm, which has already solved the same deltas.
	coldRound := func(t *testing.T, warm, cold *ClusterEngine) {
		t.Helper()
		before := cold.Stats()
		cold.MarkAllDirty()
		if err := cold.Solve(); err != nil {
			t.Fatal(err)
		}
		after := cold.Stats()
		if got := after.WarmAttempts - before.WarmAttempts; got != 0 {
			t.Fatalf("cold round made %d warm attempts, want 0", got)
		}
		if got := after.SubSolves - before.SubSolves; got != k {
			t.Fatalf("cold round re-solved %d sub-problems, want K=%d", got, k)
		}
		if w, c := warm.Objective(), cold.Objective(); !approxEq(w, c, 1e-6) {
			t.Fatalf("warm objective %.12g != cold %.12g", w, c)
		}
	}

	t.Run("cluster", func(t *testing.T) {
		c := cluster.NewCluster(12, 12, 12)
		pool := cluster.GenerateJobs(64, 9, 0.2)
		rng := rand.New(rand.NewSource(31))
		warm, err := NewClusterEngine(c, MaxMinFairness, Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := NewClusterEngine(c, MaxMinFairness, Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		engines := []*ClusterEngine{warm, cold}
		live := map[int]cluster.Job{}
		nextID := 0
		for round := 0; round < 4; round++ {
			for b := 0; b < 4; b++ {
				driveRandomDeltas(rng, engines, pool, live, &nextID)
			}
			for _, e := range engines {
				if err := e.Solve(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if cold.Stats().WarmAttempts == 0 {
			t.Fatal("churn rounds never attempted a warm start")
		}
		driveRandomDeltas(rng, engines, pool, live, &nextID)
		if err := warm.Solve(); err != nil {
			t.Fatal(err)
		}
		coldRound(t, warm, cold)

		// A restored engine's seeds are dropped too.
		restored, err := NewClusterEngine(c, MaxMinFairness, Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.Restore(warm.Snapshot()); err != nil {
			t.Fatal(err)
		}
		coldRound(t, warm, restored)
	})
}

// TestClusterEngineAllocationsOutliveLaterRounds: the solo adapter writes
// each round's rows over the partition's previous ones and the sync scratch
// is recycled between sub-solves, so what Allocate hands out must be a copy
// — an allocation a caller kept stays as it was while later rounds churn the
// engine — and a parallel engine, whose sub-solves share the scratch pools,
// must serve the very rows a sequential one does.
func TestClusterEngineAllocationsOutliveLaterRounds(t *testing.T) {
	c := cluster.NewCluster(12, 12, 12)
	pool := cluster.GenerateJobs(64, 9, 0.2)
	rng := rand.New(rand.NewSource(77))
	seq, err := NewClusterEngine(c, MaxMinFairness, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewClusterEngine(c, MaxMinFairness, Options{K: 4, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	engines := []*ClusterEngine{seq, par}
	live := map[int]cluster.Job{}
	nextID := 0
	type served struct {
		alloc *cluster.Allocation
		x     [][]float64
		thr   []float64
	}
	var kept []served
	for round := 0; round < 12; round++ {
		for b := 0; b < 6; b++ {
			driveRandomDeltas(rng, engines, pool, live, &nextID)
		}
		jobs, a, err := seq.Allocate(c)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		_, b, err := par.Allocate(c)
		if err != nil {
			t.Fatalf("round %d parallel: %v", round, err)
		}
		if len(a.X) != len(jobs) || len(b.X) != len(jobs) {
			t.Fatalf("round %d: %d and %d rows for %d jobs", round, len(a.X), len(b.X), len(jobs))
		}
		s := served{alloc: a, thr: append([]float64(nil), a.EffThr...)}
		for i, j := range jobs {
			for k := range a.X[i] {
				if math.Float64bits(a.X[i][k]) != math.Float64bits(b.X[i][k]) {
					t.Fatalf("round %d job %d: sequential row %v, parallel row %v", round, j.ID, a.X[i], b.X[i])
				}
			}
			if want := cluster.EffectiveThroughput(j, a.X[i]); a.EffThr[i] != want || b.EffThr[i] != want {
				t.Fatalf("round %d job %d: throughput %v / %v, rows give %v", round, j.ID, a.EffThr[i], b.EffThr[i], want)
			}
			s.x = append(s.x, append([]float64(nil), a.X[i]...))
		}
		kept = append(kept, s)
	}
	for round, s := range kept {
		for i := range s.x {
			for k := range s.x[i] {
				if s.alloc.X[i][k] != s.x[i][k] {
					t.Fatalf("round %d's allocation changed under later rounds: row %d now %v, was %v", round, i, s.alloc.X[i], s.x[i])
				}
			}
			if s.alloc.EffThr[i] != s.thr[i] {
				t.Fatalf("round %d's throughputs changed under later rounds", round)
			}
		}
	}
}

// TestSubProblemWithoutConstrainingJob: a sub-problem in which no job has a
// positive rate-row denominator (a job with scale 0 or no throughput under
// max-min, one with no steps left under makespan) is solved with t capped
// at 0, not found unbounded, and the cap comes off and back on in the warm
// model as a constraining job joins and leaves it. Every round's rows pass
// VerifyFeasible over the whole pool, at K = 1 and with such a sub-problem
// beside an ordinary one at K = 2.
func TestSubProblemWithoutConstrainingJob(t *testing.T) {
	c := cluster.NewCluster(4, 4, 4)
	job := func(id int, thr []float64, scale, steps float64) cluster.Job {
		return cluster.Job{ID: id, Throughput: thr, Weight: 1, Scale: scale, NumSteps: steps, Priority: 1}
	}
	live := []cluster.Job{job(10, []float64{1, 2, 3}, 1, 100), job(11, []float64{2, 2, 1}, 1, 100)}
	for _, tc := range []struct {
		policy ClusterPolicy
		idle   []cluster.Job // no positive denominator under policy
	}{
		{MaxMinFairness, []cluster.Job{job(1, []float64{1, 2, 3}, 0, 100), job(2, []float64{0, 0, 0}, 1, 100)}},
		{MinMakespan, []cluster.Job{job(1, []float64{1, 2, 3}, 1, 0), job(2, []float64{3, 2, 1}, 2, 0)}},
	} {
		for _, k := range []int{1, 2} {
			e, err := NewClusterEngine(c, tc.policy, Options{K: k})
			if err != nil {
				t.Fatal(err)
			}
			for round, active := range [][]cluster.Job{
				tc.idle,
				append(slices.Clone(tc.idle), live[0]),
				tc.idle,
				append(slices.Clone(tc.idle), live...),
				tc.idle[:1],
			} {
				alloc, err := e.Step(active, c)
				if err != nil {
					t.Fatalf("%v K=%d round %d: %v", tc.policy, k, round, err)
				}
				if err := cluster.VerifyFeasible(active, c, alloc, 1e-9); err != nil {
					t.Fatalf("%v K=%d round %d: %v", tc.policy, k, round, err)
				}
				for i, j := range active {
					if j.ID >= 10 && alloc.EffThr[i] <= 0 {
						t.Fatalf("%v K=%d round %d: constraining job %d starved", tc.policy, k, round, j.ID)
					}
				}
			}
		}
	}
}

// TestSameLayoutRoundKeepsSolveClass: a round that keeps every
// sub-problem's layout rebuilds each dirty model in place, and the model
// classifies the rebuild as the delta it is — a capacity change re-solves
// every MinMakespan sub-problem by dual pivots alone from the kept basis,
// and a weight change re-solves MaxMinFairness sub-problems through the
// primal warm path. Every round's objective equals a fresh engine's, except
// that a dual re-solve may end above a fresh cold one: on MinMakespan's
// rate rows (coefficients near 1e-5) the cold primal path can stop short of
// the optimum under lp's absolute optimality tolerance, so that round is
// held to the fresh objective from below only.
func TestSameLayoutRoundKeepsSolveClass(t *testing.T) {
	const k = 4
	// round solves e and checks its objective against a fresh engine over
	// the same cluster and jobs (from below only when atLeast), returning
	// the round's stats delta.
	round := func(t *testing.T, e *ClusterEngine, policy ClusterPolicy, jobs []cluster.Job, atLeast bool) Stats {
		t.Helper()
		before := e.Stats()
		if err := e.Solve(); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewClusterEngine(e.Cluster(), policy, Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			fresh.Upsert(j)
		}
		if err := fresh.Solve(); err != nil {
			t.Fatal(err)
		}
		got, want := e.Objective(), fresh.Objective()
		if diff := got - want; diff < -1e-9*(1+math.Abs(want)) || (!atLeast && diff > 1e-9*(1+math.Abs(want))) {
			t.Fatalf("objective %.12g, fresh engine %.12g", got, want)
		}
		d := e.Stats()
		return Stats{
			SubSolves:  d.SubSolves - before.SubSolves,
			WarmHits:   d.WarmHits - before.WarmHits,
			Iterations: d.Iterations - before.Iterations,
			DualPivots: d.DualPivots - before.DualPivots,
		}
	}
	start := func(t *testing.T, policy ClusterPolicy) (*ClusterEngine, []cluster.Job) {
		t.Helper()
		e, err := NewClusterEngine(cluster.NewCluster(12, 12, 12), policy, Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		jobs := cluster.GenerateJobs(48, 5, 0.2)
		for _, j := range jobs {
			e.Upsert(j)
		}
		round(t, e, policy, jobs, false)
		return e, jobs
	}

	t.Run("capacity", func(t *testing.T) {
		e, jobs := start(t, MinMakespan)
		e.SetCluster(cluster.NewCluster(9, 14, 11))
		d := round(t, e, MinMakespan, jobs, true)
		if d.SubSolves != k || d.WarmHits != k {
			t.Fatalf("%d sub-solves with %d warm hits, want K = %d of each", d.SubSolves, d.WarmHits, k)
		}
		if d.DualPivots == 0 || d.Iterations != d.DualPivots {
			t.Fatalf("%d pivots, %d of them dual: want dual pivots only", d.Iterations, d.DualPivots)
		}
	})
	t.Run("weight", func(t *testing.T) {
		e, jobs := start(t, MaxMinFairness)
		for i := 0; i < len(jobs); i += 5 {
			jobs[i].Weight *= 1.5
			e.Upsert(jobs[i])
		}
		d := round(t, e, MaxMinFairness, jobs, false)
		if d.WarmHits == 0 || d.DualPivots != 0 {
			t.Fatalf("%d warm hits, %d dual pivots: want warm hits on the primal path", d.WarmHits, d.DualPivots)
		}
	})
}
