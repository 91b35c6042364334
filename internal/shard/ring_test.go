package shard

import "testing"

// TestRingDeterministic: two rings over the same worker count map every id
// identically — the property worker rebuild and coordinator restart rely on
// (membership is recomputable, never persisted).
func TestRingDeterministic(t *testing.T) {
	a, b := NewRing(5), NewRing(5)
	for id := 0; id < 10_000; id++ {
		if a.Owner(id) != b.Owner(id) {
			t.Fatalf("id %d: ring instances disagree (%d vs %d)", id, a.Owner(id), b.Owner(id))
		}
	}
}

// TestRingBounds: owners stay in range, single-worker rings map everything
// to 0, and degenerate constructions are clamped.
func TestRingBounds(t *testing.T) {
	r := NewRing(4)
	for id := -100; id < 10_000; id++ {
		if w := r.Owner(id); w < 0 || w >= 4 {
			t.Fatalf("id %d: owner %d out of range", id, w)
		}
	}
	one := NewRing(1)
	for id := 0; id < 100; id++ {
		if one.Owner(id) != 0 {
			t.Fatalf("single-worker ring sent id %d to %d", id, one.Owner(id))
		}
	}
	zero := NewRing(0)
	for id := 0; id < 100; id++ {
		if zero.Owner(id) != 0 {
			t.Fatalf("NewRing(0) did not clamp to one worker: id %d went to %d", id, zero.Owner(id))
		}
	}
	if NewRingReplicas(3, 0).Owner(7) < 0 {
		t.Fatal("zero-replica ring unusable")
	}
}

// TestRingBalance: with 64 virtual points per worker the shard sizes stay
// within a loose factor of fair share — the load-spread property that makes
// per-shard engines comparably sized.
func TestRingBalance(t *testing.T) {
	const workers, ids = 4, 40_000
	r := NewRing(workers)
	counts := make([]int, workers)
	for id := 0; id < ids; id++ {
		counts[r.Owner(id)]++
	}
	fair := ids / workers
	for w, n := range counts {
		if n < fair/2 || n > fair*2 {
			t.Fatalf("worker %d owns %d of %d ids (fair share %d): ring badly unbalanced %v",
				w, n, ids, fair, counts)
		}
	}
}

// TestRingStability: growing the ring by one worker moves only a modest
// fraction of ids — the consistent-hashing property.
func TestRingStability(t *testing.T) {
	const ids = 20_000
	small, big := NewRing(4), NewRing(5)
	moved := 0
	for id := 0; id < ids; id++ {
		if small.Owner(id) != big.Owner(id) {
			moved++
		}
	}
	// Ideal is 1/5 = 20%; allow slop for the 64-point granularity.
	if frac := float64(moved) / ids; frac > 0.45 {
		t.Fatalf("adding one worker moved %.0f%% of ids; want ≲ 45%%", frac*100)
	}
}
