package pop_test

import (
	"fmt"
	"math"
	"testing"

	"pop"
)

type qJob struct {
	id     int
	demand float64
}

type qWorker struct {
	capacity float64
}

type qAlloc map[int]float64

func packingProblem(jobs []qJob, workers []qWorker) pop.Problem[qJob, qWorker, qAlloc] {
	return pop.Problem[qJob, qWorker, qAlloc]{
		Clients:    jobs,
		Resources:  workers,
		ClientLoad: func(j qJob) float64 { return j.demand },
		SolveSub: func(js []qJob, ws []qWorker, _ int) (qAlloc, error) {
			free := 0.0
			for _, w := range ws {
				free += w.capacity
			}
			out := qAlloc{}
			for _, j := range js {
				take := math.Min(j.demand, free)
				out[j.id] = take
				free -= take
			}
			return out, nil
		},
		Coalesce: func(allocs []qAlloc, _ [][]int) (qAlloc, error) {
			merged := qAlloc{}
			for _, a := range allocs {
				for id, v := range a {
					merged[id] += v
				}
			}
			return merged, nil
		},
	}
}

func TestSolveGenericRunner(t *testing.T) {
	jobs := make([]qJob, 200)
	totalDemand := 0.0
	for i := range jobs {
		jobs[i] = qJob{id: i, demand: 1 + float64(i%5)}
		totalDemand += jobs[i].demand
	}
	workers := make([]qWorker, 20)
	for i := range workers {
		workers[i] = qWorker{capacity: 40}
	}
	capacity := 20 * 40.0

	for _, k := range []int{1, 2, 5, 10} {
		got, err := pop.Solve(packingProblem(jobs, workers), pop.Options{K: k, Seed: 1, Parallel: true})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(got) != len(jobs) {
			t.Fatalf("k=%d: %d jobs allocated", k, len(got))
		}
		served := 0.0
		for id, v := range got {
			if v < 0 || v > jobs[id].demand+1e-9 {
				t.Fatalf("k=%d: job %d served %g of demand %g", k, id, v, jobs[id].demand)
			}
			served += v
		}
		want := math.Min(totalDemand, capacity)
		// With workers partitioned round-robin and clients randomly, every
		// sub-problem has capacity to serve its share: totals should match
		// the k=1 optimum here (demand < capacity).
		if math.Abs(served-want) > 1e-6*want {
			t.Fatalf("k=%d: served %g, want %g", k, served, want)
		}
	}
}

func TestSolveResourceSplitting(t *testing.T) {
	jobs := []qJob{{0, 5}, {1, 5}, {2, 5}, {3, 5}}
	workers := []qWorker{{capacity: 12}}
	p := packingProblem(jobs, workers)
	p.ScaleResource = func(w qWorker, k int) qWorker {
		return qWorker{capacity: w.capacity / float64(k)}
	}
	got, err := pop.Solve(p, pop.Options{K: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	served := 0.0
	for _, v := range got {
		served += v
	}
	// Capacity 12 split 4 ways: 3 per sub-problem, one job each → 12 total,
	// conserved exactly.
	if math.Abs(served-12) > 1e-9 {
		t.Fatalf("served %g, want 12", served)
	}
}

func TestSolveValidatesOptions(t *testing.T) {
	p := packingProblem([]qJob{{0, 1}}, []qWorker{{1}})
	if _, err := pop.Solve(p, pop.Options{K: 0}); err == nil {
		t.Fatal("K=0 must fail")
	}
}

func TestSolvePropagatesSubErrors(t *testing.T) {
	p := packingProblem(make([]qJob, 10), make([]qWorker, 4))
	p.SolveSub = func([]qJob, []qWorker, int) (qAlloc, error) {
		return nil, fmt.Errorf("sub boom")
	}
	if _, err := pop.Solve(p, pop.Options{K: 2}); err == nil {
		t.Fatal("expected sub-solver error")
	}
}

func TestPartitionReExport(t *testing.T) {
	groups := pop.Partition(30, 3, pop.Random, 7, nil)
	if len(groups) != 3 {
		t.Fatalf("got %d groups", len(groups))
	}
	seen := map[int]bool{}
	for _, g := range groups {
		for _, i := range g {
			seen[i] = true
		}
	}
	if len(seen) != 30 {
		t.Fatalf("covered %d clients", len(seen))
	}
}

func TestSplitClientsReExport(t *testing.T) {
	type c struct{ v float64 }
	out := pop.SplitClients([]c{{8}, {2}}, 1.0,
		func(x c) float64 { return x.v },
		func(x c) (c, c) { return c{x.v / 2}, c{x.v / 2} })
	if len(out) != 4 {
		t.Fatalf("got %d virtual clients, want 4", len(out))
	}
	total := 0.0
	for _, vc := range out {
		total += vc.Client.v
	}
	if total != 10 {
		t.Fatalf("load not conserved: %g", total)
	}
}

func TestSplitResourceReExport(t *testing.T) {
	out := pop.SplitResource([]qWorker{{10}}, 5, func(w qWorker, k int) qWorker {
		return qWorker{capacity: w.capacity / float64(k)}
	})
	if len(out) != 5 || out[0][0].capacity != 2 {
		t.Fatalf("SplitResource = %v", out)
	}
}
