package online

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pop/internal/cluster"
	"pop/internal/lb"
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
		warm, err := NewClusterEngine(c, MaxMinFairness, Options{K: 4}, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := NewClusterEngine(c, MaxMinFairness, Options{K: 4}, lp.Options{})
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
				e, err := NewClusterEngine(pop.c, pc.policy, Options{K: 1}, lp.Options{})
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
	e, err := NewClusterEngine(c, MaxMinFairness, Options{K: 4}, lp.Options{})
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
	tr, err := newEngine(nil, Options{K: 3}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Weights chosen so placement is forced: 5 → p0; 3 → p1; 1 → p2;
	// next (1) goes to p2 again (load 2 < 3 < 5).
	if p := tr.upsert(0, 5); p != 0 {
		t.Fatalf("first arrival to %d, want 0", p)
	}
	if p := tr.upsert(1, 3); p != 1 {
		t.Fatalf("second arrival to %d, want 1", p)
	}
	if p := tr.upsert(2, 1); p != 2 {
		t.Fatalf("third arrival to %d, want 2", p)
	}
	if p := tr.upsert(3, 1); p != 2 {
		t.Fatalf("fourth arrival to %d, want 2 (least loaded)", p)
	}
	before := map[int]int{}
	for id, p := range tr.partOf {
		before[id] = p
	}
	// Departure: survivors stay put.
	tr.remove(1)
	for id, p := range tr.partOf {
		if before[id] != p {
			t.Fatalf("departure moved survivor %d: %d → %d", id, before[id], p)
		}
	}
	// Update: weight change does not migrate.
	if p := tr.upsert(0, 0.1); p != 0 {
		t.Fatalf("update migrated client 0 to %d", p)
	}
	// New arrival lands on the now-emptiest sub-problem (p1, load 0).
	if p := tr.upsert(9, 1); p != 1 {
		t.Fatalf("arrival after departure to %d, want 1", p)
	}
	// Order inside a partition is stable.
	if got := tr.subs[2].ids; len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("partition 2 order drifted: %v", got)
	}
}

// TestRebalanceBoundsLoadDrift: with Rebalance on, at most one client moves
// per round, the load spread never widens, and under a static population it
// settles below the lightest member of the heaviest partition — the drift
// bound.
func TestRebalanceBoundsLoadDrift(t *testing.T) {
	tr, err := newEngine(nil, Options{K: 3, Rebalance: true}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	noop := func(p int, ids []int) (subReport, error) { return subReport{}, nil }

	// Build a skew: fill all partitions, then drain two of them by
	// departures so partition loads diverge hard.
	for id := 0; id < 60; id++ {
		tr.upsert(id, 0.5+rng.Float64())
	}
	for id := 0; id < 60; id++ {
		if p := tr.partOf[id]; p != 0 && rng.Float64() < 0.8 {
			tr.remove(id)
		}
	}

	spread := func() float64 {
		hi, lo := math.Inf(-1), math.Inf(1)
		for _, s := range tr.subs {
			hi = math.Max(hi, s.load)
			lo = math.Min(lo, s.load)
		}
		return hi - lo
	}

	prev := spread()
	for round := 0; round < 40; round++ {
		moved := tr.stats.Rebalances
		tr.rebalance()
		if err := tr.solveDirty(noop); err != nil {
			t.Fatal(err)
		}
		if tr.stats.Rebalances-moved > 1 {
			t.Fatalf("round %d moved %d clients, want ≤ 1", round, tr.stats.Rebalances-moved)
		}
		if s := spread(); s > prev+1e-9 {
			t.Fatalf("round %d widened the spread: %g → %g", round, prev, s)
		} else {
			prev = s
		}
	}
	if tr.stats.Rebalances == 0 {
		t.Fatal("rebalancer never moved a client off the skew")
	}
	// At the fixpoint the spread is below the lightest member of the
	// heaviest partition (otherwise that member would still move).
	hi := 0
	for p := range tr.subs {
		if tr.subs[p].load > tr.subs[hi].load {
			hi = p
		}
	}
	lightest := math.Inf(1)
	for _, id := range tr.subs[hi].ids {
		lightest = math.Min(lightest, tr.loadOf[id])
	}
	if len(tr.subs[hi].ids) > 0 && prev > lightest+1e-9 {
		t.Fatalf("spread %g did not settle below the heaviest partition's lightest member %g", prev, lightest)
	}
	// Sanity: partition bookkeeping survived the moves.
	for id, p := range tr.partOf {
		found := false
		for _, m := range tr.subs[p].ids {
			if m == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("client %d claims partition %d but is not a member", id, p)
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
	warm, err := NewClusterEngine(c, MaxMinFairness, Options{K: 4, Rebalance: true}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewClusterEngine(c, MaxMinFairness, Options{K: 4, Rebalance: true}, lp.Options{})
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
	e, err := NewClusterEngine(c, MinMakespan, Options{K: 3, Parallel: true}, lp.Options{})
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
	if _, err := NewClusterEngine(cluster.NewCluster(1, 1, 1), MaxMinFairness, Options{K: 0}, lp.Options{}); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := NewLBEngine(Options{K: -1}, lp.Options{}); err == nil {
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
	coldRound := func(t *testing.T, k int, cold interface{ Stats() Stats }, round func() error, objs func() (float64, float64)) {
		t.Helper()
		before := cold.Stats()
		if err := round(); err != nil {
			t.Fatal(err)
		}
		after := cold.Stats()
		if got := after.WarmAttempts - before.WarmAttempts; got != 0 {
			t.Fatalf("cold round made %d warm attempts, want 0", got)
		}
		if got := after.SubSolves - before.SubSolves; got != k {
			t.Fatalf("cold round re-solved %d sub-problems, want K=%d", got, k)
		}
		if w, c := objs(); !approxEq(w, c, 1e-6) {
			t.Fatalf("warm objective %.12g != cold %.12g", w, c)
		}
	}

	t.Run("cluster", func(t *testing.T) {
		c := cluster.NewCluster(12, 12, 12)
		pool := cluster.GenerateJobs(64, 9, 0.2)
		rng := rand.New(rand.NewSource(31))
		warm, err := NewClusterEngine(c, MaxMinFairness, Options{K: 4}, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := NewClusterEngine(c, MaxMinFairness, Options{K: 4}, lp.Options{})
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
		objs := func() (float64, float64) { return warm.Objective(), cold.Objective() }
		coldRound(t, 4, cold, func() error { cold.MarkAllDirty(); return cold.Solve() }, objs)

		// A restored engine's seeds are dropped too.
		restored, err := NewClusterEngine(c, MaxMinFairness, Options{K: 4}, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.Restore(warm.Snapshot()); err != nil {
			t.Fatal(err)
		}
		objs = func() (float64, float64) { return warm.Objective(), restored.Objective() }
		coldRound(t, 4, restored, func() error { restored.MarkAllDirty(); return restored.Solve() }, objs)
	})

	t.Run("lb", func(t *testing.T) {
		inst := lb.NewInstance(32, 8, 0.05, 305)
		warm, err := NewLBEngine(Options{K: 2}, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := NewLBEngine(Options{K: 2}, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 4; round++ {
			inst.ShiftLoads(int64(round))
			wa, err := warm.Step(inst)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cold.Step(inst); err != nil {
				t.Fatal(err)
			}
			inst.Placement = wa.Placed
		}
		if cold.Stats().WarmAttempts == 0 {
			t.Fatal("churn rounds never attempted a warm start")
		}
		inst.ShiftLoads(4)
		if _, err := warm.Step(inst); err != nil {
			t.Fatal(err)
		}
		step := func() error {
			cold.MarkAllDirty()
			_, err := cold.Step(inst)
			return err
		}
		coldRound(t, 2, cold, step, func() (float64, float64) { return warm.Objective(), cold.Objective() })
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
	seq, err := NewClusterEngine(c, MaxMinFairness, Options{K: 4}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewClusterEngine(c, MaxMinFairness, Options{K: 4, Parallel: true}, lp.Options{})
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
