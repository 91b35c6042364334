package experiments

import (
	"fmt"
	"time"

	"pop/internal/core"
	"pop/internal/lb"
	"pop/internal/milp"
)

// Fig13 regenerates Figure 13: the minimize-shard-movement load balancing
// policy — average runtime and shard movements per round for the exact
// MILP, POP variants, and the E-Store greedy, over a multi-round
// simulation with shifting loads (paper: 1024 shards / 64 servers, 100
// rounds).
func Fig13(scale Scale) (*Result, error) {
	numShards := pick(scale, 16, 48, 128)
	numServers := pick(scale, 4, 12, 32)
	rounds := pick(scale, 3, 6, 20)
	ks := pick(scale, []int{2}, []int{2, 4}, []int{4, 16})
	nodeCap := pick(scale, 2000, 6000, 20000)
	timeLimit := pick(scale, 5*time.Second, 30*time.Second, 5*time.Minute)

	res := &Result{
		Name:   "fig13",
		Title:  "Load balancing: runtime and shard movements (paper Fig. 13)",
		Header: []string{"method", "avg runtime", "avg movements", "avg band deviation", "optimal rounds", "nodes (warm)", "pivots (dual)"},
		Notes: []string{
			fmt.Sprintf("scaled to %d shards / %d servers, %d rounds (paper: 1024/64, 100 rounds); MILP capped at %d nodes / %v per round",
				numShards, numServers, rounds, nodeCap, timeLimit),
		},
	}

	milpOpts := milp.Options{MaxNodes: nodeCap, TimeLimit: timeLimit}
	type method struct {
		label  string
		solver lb.Solver
	}
	// The exact path is the stateful solver: each round's root relaxation
	// seeds the next round's search with its basis, and every node re-solve
	// inside a round rides the persistent model's dual simplex.
	methods := []method{
		{"Exact sol.", lb.NewMILPSolver(milpOpts).Solve},
	}
	for _, k := range ks {
		k := k
		methods = append(methods, method{fmt.Sprintf("POP-%d", k), func(in *lb.Instance) (*lb.Assignment, error) {
			return lb.SolvePOP(in, core.Options{K: k, Seed: 9, Parallel: true}, milpOpts)
		}})
	}
	methods = append(methods, method{"Greedy", func(in *lb.Instance) (*lb.Assignment, error) {
		return lb.SolveGreedy(in), nil
	}})

	for _, m := range methods {
		inst := lb.NewInstance(numShards, numServers, 0.05, 77)
		r, err := lb.RunRounds(inst, rounds, 55, m.solver)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.label, err)
		}
		nodes, pivots := "-", "-"
		if r.Search.Nodes > 0 {
			nodes = fmt.Sprintf("%d (%d)", r.Search.Nodes, r.Search.WarmNodes)
			pivots = fmt.Sprintf("%d (%d)", r.Search.LPPivots, r.Search.DualPivots)
		}
		res.Rows = append(res.Rows, []string{
			m.label,
			fdur(r.AvgRuntime),
			fs(r.AvgMovements, 1),
			fs(r.AvgDeviation, 3),
			fmt.Sprintf("%d/%d", r.OptimalRounds, rounds),
			nodes,
			pivots,
		})
	}
	return res, nil
}
