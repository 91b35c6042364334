package cluster

import (
	"math/rand"
	"sort"
)

// Gandiva is the greedy space-sharing heuristic the paper compares against
// in Figure 2 (after Xiao et al., OSDI 18). It assigns each job full-time to
// the fastest GPU type with free capacity; when GPUs run out, it packs the
// remaining jobs onto already-assigned single-GPU jobs, choosing for each
// the partner that maximizes the interference retention factor.
//
// The heuristic runs in O(n log n + n·m) time and needs no solver, but its
// allocation quality trails the space-sharing LP — the trade-off Figure 2
// plots.
func Gandiva(jobs []Job, c Cluster, seed int64) *Allocation {
	r := c.NumTypes()
	free := append([]float64(nil), c.NumGPUs...)
	rng := rand.New(rand.NewSource(seed))

	// Process jobs in random order (Gandiva is an online packer; random
	// order avoids systematic bias in the comparison).
	order := rng.Perm(len(jobs))

	type slot struct {
		pair Pair
		typ  int
	}
	var slots []slot
	// soloOnType[i] lists indices into slots of single-GPU solo slots on
	// type i, available for packing.
	var packable []int

	var unplaced []int
	for _, idx := range order {
		j := jobs[idx]
		// Fastest type with enough free GPUs.
		best, bestThr := -1, 0.0
		for i := 0; i < r; i++ {
			if free[i] >= j.Scale && j.Throughput[i] > bestThr {
				best, bestThr = i, j.Throughput[i]
			}
		}
		if best < 0 {
			unplaced = append(unplaced, idx)
			continue
		}
		free[best] -= j.Scale
		slots = append(slots, slot{Pair{J1: j.ID, J2: NoPartner}, best})
		if j.Scale == 1 {
			packable = append(packable, len(slots)-1)
		}
	}

	// Pack leftovers onto the compatible solo slot with the best retention.
	// Heaviest-memory jobs go first: they are the hardest to place.
	sort.SliceStable(unplaced, func(a, b int) bool {
		return jobs[unplaced[a]].MemFrac > jobs[unplaced[b]].MemFrac
	})
	index := indexByID(jobs)
	for _, idx := range unplaced {
		j := jobs[idx]
		if j.Scale != 1 {
			continue // multi-GPU jobs cannot space-share; they starve
		}
		bestSlot, bestKappa := -1, 0.0
		for si, s := range packable {
			if s < 0 {
				continue
			}
			host := jobs[index[slots[s].pair.J1]]
			if k := Interference(host, j); k > bestKappa {
				bestKappa = k
				bestSlot = si
			}
		}
		if bestSlot < 0 {
			continue
		}
		s := packable[bestSlot]
		slots[s].pair.J2 = j.ID
		packable[bestSlot] = -1 // a GPU hosts at most two jobs
	}

	// Materialize: each slot runs full-time on its chosen type.
	a := &Allocation{
		Pairs:  make([]Pair, len(slots)),
		PairX:  make([][]float64, len(slots)),
		EffThr: make([]float64, len(jobs)),
	}
	for si, s := range slots {
		a.Pairs[si] = s.pair
		row := make([]float64, r)
		row[s.typ] = 1
		a.PairX[si] = row
	}
	FillPairEffThr(jobs, a)
	return a
}
