package pop_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"pop"
	"pop/internal/cluster"
	"pop/internal/core"
	"pop/internal/lb"
	"pop/internal/lp"
	"pop/internal/milp"
	"pop/internal/te"
	"pop/internal/tm"
	"pop/internal/topo"
)

// outcome is what a contract row compares: the objective the entry point's
// sub-solver optimizes and every number of the coalesced allocation.
type outcome struct {
	objective float64
	alloc     []float64
}

// entryPoint is one of the seven POP entry points over a family of instances
// sized by client count (and, where it partitions resources rather than
// splitting them 1/k, by resource count).
type entryPoint struct {
	name string
	// pop runs the entry point and verifies the coalesced allocation.
	pop func(clients, resources int, opts core.Options) (outcome, error)
	// exact runs the unpartitioned sub-solver on the same instance.
	exact func(clients, resources int) (outcome, error)
	// partitionsResources: resources are dealt out whole, so they bound k.
	partitionsResources bool
	// splits: the entry point supplies an Algorithm-2 splitter.
	splits bool
	// rejectsEmpty: the sub-solver has no answer for an instance without
	// clients (lb has no load band to meet) and says so.
	rejectsEmpty bool
}

func flatten(rows ...[]float64) []float64 { return slices.Concat(rows...) }

func clusterEntry() entryPoint {
	c := cluster.NewCluster(4, 4, 4)
	finish := func(jobs []cluster.Job, a *cluster.Allocation) (outcome, error) {
		if err := cluster.VerifyFeasible(jobs, c, a, 1e-6); err != nil {
			return outcome{}, err
		}
		o := outcome{alloc: flatten(append(a.X, a.EffThr)...)}
		if len(jobs) > 0 {
			o.objective, _ = cluster.MinMean(cluster.NormalizedRatios(jobs, c, a))
		}
		return o, nil
	}
	return entryPoint{
		name: "cluster.SolvePOP",
		pop: func(n, _ int, opts core.Options) (outcome, error) {
			jobs := cluster.GenerateJobs(n, 7, 0.2)
			a, err := cluster.SolvePOP(jobs, c, cluster.MaxMinFairness, opts, lp.Options{})
			if err != nil {
				return outcome{}, err
			}
			return finish(jobs, a)
		},
		exact: func(n, _ int) (outcome, error) {
			jobs := cluster.GenerateJobs(n, 7, 0.2)
			a, err := cluster.MaxMinFairness(jobs, c, lp.Options{})
			if err != nil {
				return outcome{}, err
			}
			return finish(jobs, a)
		},
	}
}

func lbEntry() entryPoint {
	finish := func(inst *lb.Instance, a *lb.Assignment) (outcome, error) {
		if err := lb.VerifyFeasible(inst, a, 1e-6); err != nil {
			return outcome{}, err
		}
		if !a.Optimal {
			return outcome{}, fmt.Errorf("search not proven optimal")
		}
		return outcome{objective: a.MovedBytes, alloc: flatten(a.Frac...)}, nil
	}
	newInstance := func(shards, servers int) *lb.Instance {
		inst := lb.NewInstance(shards, servers, 0.05, 21)
		inst.ShiftLoads(22)
		return inst
	}
	return entryPoint{
		name: "lb.SolvePOP",
		pop: func(shards, servers int, opts core.Options) (outcome, error) {
			inst := newInstance(shards, servers)
			a, err := lb.SolvePOP(inst, opts, milp.Options{})
			if err != nil {
				return outcome{}, err
			}
			return finish(inst, a)
		},
		exact: func(shards, servers int) (outcome, error) {
			inst := newInstance(shards, servers)
			a, err := lb.SolveMILP(inst, milp.Options{})
			if err != nil {
				return outcome{}, err
			}
			return finish(inst, a)
		},
		partitionsResources: true,
		rejectsEmpty:        true,
	}
}

func teEntry(name string, splits, partitionsResources bool,
	solve func(*te.Instance, core.Options) (*te.Allocation, error),
	exact func(*te.Instance) (*te.Allocation, error)) entryPoint {
	// 6 nodes, 14 directed edges. A path budget of 8 covers every simple path
	// between two nodes, so the edge-shuffled sub-graph of SolveSharded
	// routes over the same path set as the original.
	tp := topo.Tiny()
	newInstance := func(n int) *te.Instance {
		var ds []tm.Demand
		if n > 0 {
			ds = tm.Generate(tm.Config{Nodes: tp.G.N, Commodities: n, Model: tm.Poisson, TotalDemand: 60, Seed: 5})
		}
		return te.NewInstance(tp, ds, 8)
	}
	finish := func(inst *te.Instance, a *te.Allocation, err error) (outcome, error) {
		if err != nil {
			return outcome{}, err
		}
		if err := a.VerifyFeasible(inst, 1e-6); err != nil {
			return outcome{}, err
		}
		return outcome{objective: a.TotalFlow, alloc: flatten(append(a.PathFlow, a.Flow, a.EdgeFlow)...)}, nil
	}
	return entryPoint{
		name: name,
		pop: func(n, _ int, opts core.Options) (outcome, error) {
			inst := newInstance(n)
			a, err := solve(inst, opts)
			return finish(inst, a, err)
		},
		exact: func(n, _ int) (outcome, error) {
			inst := newInstance(n)
			a, err := exact(inst)
			return finish(inst, a, err)
		},
		splits:              splits,
		partitionsResources: partitionsResources,
	}
}

func solveEntry() entryPoint {
	problem := func(n, workers int) pop.Problem[qJob, qWorker, qAlloc] {
		jobs := make([]qJob, n)
		for i := range jobs {
			jobs[i] = qJob{id: i, demand: 1 + float64(i%5)}
		}
		ws := make([]qWorker, workers)
		for i := range ws {
			ws[i] = qWorker{capacity: 2 * float64(n) / float64(workers)}
		}
		return packingProblem(jobs, ws)
	}
	finish := func(n int, a qAlloc, err error) (outcome, error) {
		if err != nil {
			return outcome{}, err
		}
		o := outcome{alloc: make([]float64, n)}
		for id, v := range a {
			o.alloc[id] = v
			o.objective += v
		}
		return o, nil
	}
	return entryPoint{
		name: "pop.Solve",
		pop: func(n, workers int, opts core.Options) (outcome, error) {
			a, err := pop.Solve(problem(n, workers), opts)
			return finish(n, a, err)
		},
		exact: func(n, workers int) (outcome, error) {
			p := problem(n, workers)
			a, err := p.SolveSub(p.Clients, p.Resources, 0)
			return finish(n, a, err)
		},
		partitionsResources: true,
	}
}

func entryPoints() []entryPoint {
	lpExact := func(inst *te.Instance) (*te.Allocation, error) {
		return te.SolveLP(inst, te.MaxTotalFlow, lp.Options{})
	}
	return []entryPoint{
		clusterEntry(),
		lbEntry(),
		teEntry("te.SolvePOP", true, false, func(inst *te.Instance, o core.Options) (*te.Allocation, error) {
			return te.SolvePOP(inst, te.MaxTotalFlow, o, lp.Options{})
		}, lpExact),
		teEntry("te.SolvePOPWithNCFlow", true, false, func(inst *te.Instance, o core.Options) (*te.Allocation, error) {
			return te.SolvePOPWithNCFlow(inst, o, te.NCFlowOptions{Seed: 1})
		}, func(inst *te.Instance) (*te.Allocation, error) {
			return te.SolveNCFlow(inst, te.NCFlowOptions{Seed: 1})
		}),
		teEntry("te.SolvePOPGeo", false, false, func(inst *te.Instance, o core.Options) (*te.Allocation, error) {
			return te.SolvePOPGeo(inst, te.MaxTotalFlow, o, lp.Options{})
		}, lpExact),
		teEntry("te.SolveSharded", false, true, func(inst *te.Instance, o core.Options) (*te.Allocation, error) {
			return te.SolveSharded(inst, te.MaxTotalFlow, o, lp.Options{})
		}, lpExact),
		solveEntry(),
	}
}

// TestPOPContract holds every POP entry point to the one runner's rules for
// k, the options and the map step. The rows marked "parent" failed before
// the entry points shared a runner: lb.SolvePOP errored with fewer shards
// than K, pop.Solve panicked with fewer partitioned resources than K, and
// te.SolvePOPGeo panicked on K = 0.
func TestPOPContract(t *testing.T) {
	for _, ep := range entryPoints() {
		t.Run(ep.name, func(t *testing.T) {
			t.Run("clients<K", func(t *testing.T) { // parent: lb.SolvePOP
				if _, err := ep.pop(3, 8, core.Options{K: 8, Seed: 1}); err != nil {
					t.Fatal(err)
				}
			})
			t.Run("resources<K", func(t *testing.T) { // parent: pop.Solve
				if !ep.partitionsResources {
					t.Skip("every resource is split 1/k")
				}
				if _, err := ep.pop(20, 2, core.Options{K: 16, Seed: 1}); err != nil {
					t.Fatal(err)
				}
			})
			t.Run("K=0", func(t *testing.T) { // parent: te.SolvePOPGeo
				_, err := ep.pop(12, 4, core.Options{K: 0})
				if err == nil || !strings.Contains(err.Error(), "pop: K must be ≥ 1") {
					t.Fatalf("err = %v, want the runner's K error", err)
				}
			})
			t.Run("K=1", func(t *testing.T) {
				// RoundRobin keeps the lone sub-problem in the caller's order.
				got, err := ep.pop(12, 4, core.Options{K: 1, Strategy: core.RoundRobin})
				if err != nil {
					t.Fatal(err)
				}
				want, err := ep.exact(12, 4)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got.objective-want.objective) > 1e-9*(1+math.Abs(want.objective)) {
					t.Fatalf("objective %g, unpartitioned sub-solver %g", got.objective, want.objective)
				}
			})
			t.Run("no clients", func(t *testing.T) {
				// One empty sub-problem; the sub-solver decides what it means.
				got, err := ep.pop(0, 4, core.Options{K: 4, Seed: 1})
				if (err != nil) != ep.rejectsEmpty {
					t.Fatalf("err = %v, want an error: %v", err, ep.rejectsEmpty)
				}
				if got.objective != 0 {
					t.Fatalf("objective %g without clients", got.objective)
				}
			})
			t.Run("parallel==serial", func(t *testing.T) {
				opts := core.Options{K: 3, Seed: 4}
				serial, err := ep.pop(12, 6, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Parallel = true
				parallel, err := ep.pop(12, 6, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(serial.alloc, parallel.alloc) {
					t.Fatalf("allocations differ:\nserial   %v\nparallel %v", serial.alloc, parallel.alloc)
				}
			})
			t.Run("SplitT", func(t *testing.T) {
				_, err := ep.pop(12, 4, core.Options{K: 2, Seed: 1, SplitT: 0.5})
				if ep.splits && err != nil {
					t.Fatal(err)
				}
				if !ep.splits && (err == nil || !strings.Contains(err.Error(), "does not split clients")) {
					t.Fatalf("err = %v, want SplitT rejected", err)
				}
			})
		})
	}
}
