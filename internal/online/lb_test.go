package online

import (
	"math"
	"testing"

	"pop/internal/lb"
	"pop/internal/lp"
)

// checkAssignment verifies coverage and linking. Memory is deliberately not
// checked: the relaxation's rounded-up placements can overshoot the (relaxed) memory bound — that is the documented cost of
// relaxing the MILP.
func checkAssignment(t *testing.T, inst *lb.Instance, a *lb.Assignment) {
	t.Helper()
	for i := range inst.Shards {
		sum := 0.0
		for j := range inst.Servers {
			f := a.Frac[i][j]
			if f < -1e-6 {
				t.Fatalf("negative fraction shard %d server %d", i, j)
			}
			if f > 1e-6 && !a.Placed[i][j] {
				t.Fatalf("shard %d serves from %d without placement", i, j)
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("shard %d coverage %g != 1", i, sum)
		}
	}
}

// TestLBEngineMatchesColdFullSolve: over shifting-load round sequences, the
// warm incremental balancer must match a cold full solve (same partitions)
// on the relaxed movement objective to 1e-6. Both engines see the same
// placement trajectory (the warm engine's output drives the instance, as in
// lb.RunRounds).
func TestLBEngineMatchesColdFullSolve(t *testing.T) {
	sequences := 12
	rounds := 4
	if testing.Short() {
		sequences = 4
	}
	warmHits := 0
	for seq := 0; seq < sequences; seq++ {
		inst := lb.NewInstance(32, 8, 0.05, int64(300+seq))
		warm, err := NewLBEngine(Options{K: 2}, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := NewLBEngine(Options{K: 2}, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < rounds; round++ {
			inst.ShiftLoads(int64(seq*1000 + round))
			wa, err := warm.Step(inst)
			if err != nil {
				t.Fatalf("seq %d round %d warm: %v", seq, round, err)
			}
			cold.MarkAllDirty()
			if _, err := cold.Step(inst); err != nil {
				t.Fatalf("seq %d round %d cold: %v", seq, round, err)
			}
			if w, c := warm.Objective(), cold.Objective(); !approxEq(w, c, 1e-6) {
				t.Fatalf("seq %d round %d: warm objective %.12g != cold %.12g", seq, round, w, c)
			}
			checkAssignment(t, inst, wa)
			inst.Placement = wa.Placed
		}
		warmHits += warm.Stats().WarmHits
	}
	if warmHits == 0 {
		t.Fatal("LB engine never warm-started")
	}
}

// TestLBEngineDeltas: arrivals, departures, and server changes flow through
// the dirty tracking.
func TestLBEngineDeltas(t *testing.T) {
	inst := lb.NewInstance(24, 6, 0.05, 5)
	e, err := NewLBEngine(Options{K: 2, Parallel: true}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.Step(inst)
	if err != nil {
		t.Fatal(err)
	}
	checkAssignment(t, inst, a)
	base := e.Stats()
	if base.SubSolves != 2 {
		t.Fatalf("first round solved %d sub-problems, want 2", base.SubSolves)
	}

	// Idle round: loads and placement unchanged → nothing re-solves. (Note
	// that feeding the engine's own output placement back would NOT be idle:
	// a placement change re-anchors the movement costs.)
	if _, err := e.Step(inst); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().SubSolves - base.SubSolves; got != 0 {
		t.Fatalf("idle round re-solved %d sub-problems", got)
	}

	// Shard departure dirties only its own sub-problem.
	removed := inst.Shards[3].ID
	inst.Shards = append(inst.Shards[:3], inst.Shards[4:]...)
	inst.Placement = append(inst.Placement[:3], inst.Placement[4:]...)
	a, err = e.Step(inst)
	if err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Departures != 1 {
		t.Fatalf("departures = %d, want 1", s.Departures)
	}
	if got := s.SubSolves - base.SubSolves; got != 1 {
		t.Fatalf("departure re-solved %d sub-problems, want 1", got)
	}
	checkAssignment(t, inst, a)

	// Server capacity change dirties everything.
	inst.Servers[0].MemCap *= 2
	if _, err := e.Step(inst); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().SubSolves - s.SubSolves; got != 2 {
		t.Fatalf("capacity change re-solved %d sub-problems, want 2", got)
	}
	_ = removed
}

// TestLBEngineInRunRounds wires the engine into the stock round loop.
func TestLBEngineInRunRounds(t *testing.T) {
	inst := lb.NewInstance(20, 4, 0.05, 21)
	e, err := NewLBEngine(Options{K: 2}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := lb.RunRounds(inst, 3, 99, e.Solver())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
	st := e.Stats()
	if st.Rounds != 3 {
		t.Fatalf("engine saw %d rounds, want 3", st.Rounds)
	}
	if st.WarmHits == 0 {
		t.Fatal("no warm hits across RunRounds")
	}
}
