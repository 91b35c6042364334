package shard

import "testing"

// TestOwnerDeterministic: the owner is a function of (id, W) alone — the
// property worker rebuild and coordinator restart rely on (membership is
// recomputable, never persisted) — so its values are pinned: a change to
// the hash re-homes every restored fleet, and must fail here on every
// architecture, not only in TestSameBits.
func TestOwnerDeterministic(t *testing.T) {
	for _, c := range []struct{ id, workers, want int }{
		{0, 2, 1}, {0, 3, 2}, {0, 8, 7},
		{1, 2, 0}, {1, 3, 0}, {1, 8, 3},
		{-1, 2, 0}, {-1, 3, 2}, {-1, 8, 3},
		{12345, 2, 0}, {12345, 3, 2}, {12345, 8, 5},
	} {
		if got := owner(c.id, c.workers); got != c.want {
			t.Errorf("owner(%d, %d) = %d, want %d", c.id, c.workers, got, c.want)
		}
	}
}

// TestOwnerBounds: owners stay in range for negative ids too, and a fleet
// of one worker — or a worker count clamped up from zero or below — maps
// everything to worker 0.
func TestOwnerBounds(t *testing.T) {
	for id := -100; id < 10_000; id++ {
		if w := owner(id, 4); w < 0 || w >= 4 {
			t.Fatalf("id %d: owner %d out of range", id, w)
		}
	}
	for _, workers := range []int{1, 0, -3} {
		for id := -10; id < 100; id++ {
			if w := owner(id, workers); w != 0 {
				t.Fatalf("owner(%d, %d) = %d, want 0", id, workers, w)
			}
		}
	}
}

// TestOwnerBalance: every worker owns close to 1/W of the ids. Each worker
// gets 1/W of the pool, so under max-min the busiest shard caps the served
// objective at mean/max of the optimum; the bound is 1.06 over 10 000
// sequential ids and over a window shifted as churn shifts the live ids.
func TestOwnerBalance(t *testing.T) {
	for _, workers := range []int{2, 3, 4, 8} {
		for _, window := range [][2]int{{0, 10_000}, {2_200, 12_200}} {
			counts := make([]int, workers)
			for id := window[0]; id < window[1]; id++ {
				counts[owner(id, workers)]++
			}
			most := 0
			for _, n := range counts {
				most = max(most, n)
			}
			mean := float64(window[1]-window[0]) / float64(workers)
			if skew := float64(most) / mean; skew > 1.06 {
				t.Errorf("W = %d, ids %d–%d: busiest worker owns %.3f× the mean %v", workers, window[0], window[1]-1, skew, counts)
			}
		}
	}
}

// TestOwnerGrowth: growing the fleet from W to W+1 workers moves about
// 1/(W+1) of the ids, and every id that moves goes to the new worker — the
// consistent-hashing property.
func TestOwnerGrowth(t *testing.T) {
	const ids = 20_000
	for workers := 1; workers <= 8; workers++ {
		moved := 0
		for id := 0; id < ids; id++ {
			from, to := owner(id, workers), owner(id, workers+1)
			if from == to {
				continue
			}
			if to != workers {
				t.Fatalf("W %d → %d: id %d moved from worker %d to %d, not to the new worker", workers, workers+1, id, from, to)
			}
			moved++
		}
		want := 1 / float64(workers+1)
		if frac := float64(moved) / ids; frac < want-0.02 || frac > want+0.02 {
			t.Errorf("W %d → %d moved %.3f of the ids, want %.3f ± 0.02", workers, workers+1, frac, want)
		}
	}
}
