package experiments

import (
	"fmt"
	"pop/internal/core"
	"pop/internal/lp"
	"pop/internal/te"
	"pop/internal/tm"
	"pop/internal/topo"
)

// Extensions exercises the features the paper mentions but leaves to future
// work or describes only in prose:
//
//   - geographic partitioning of commodities (§3.2's "assign geographically
//     close clients and resources to the same sub-problem") versus random;
//   - POP composed with NCFlow as the sub-problem solver (§3.4
//     "Composability", §8 "POP and NCFlow can be used together").
func Extensions(scale Scale) (*Result, error) {
	res := &Result{
		Name:   "ext",
		Title:  "Extensions: geo partitioning, POP×NCFlow",
		Header: []string{"experiment", "method", "runtime", "quality", "note"},
	}

	// --- TE extensions on a shared instance ---
	factor := pick(scale, 0.3, 0.6, 1.0)
	commodities := pick(scale, 800, 1500, 3000)
	tp := topo.GenerateScaled("Cogentco", factor)
	ds := tm.Generate(tm.Config{
		Nodes: tp.G.N, Commodities: commodities, Model: tm.Gravity,
		TotalDemand: tp.TotalCapacity() * 0.3, Seed: 61,
	})
	inst := te.NewInstance(tp, ds, 4)

	var exact *te.Allocation
	dExact, err := timed(func() error {
		var e error
		exact, e = te.SolveLP(inst, te.MaxTotalFlow, lp.Options{})
		return e
	})
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, []string{"TE max-flow", "Exact sol.", fdur(dExact), "1.000", "baseline"})

	addTE := func(label, note string, run func() (*te.Allocation, error)) error {
		var a *te.Allocation
		d, err := timed(func() error {
			var e error
			a, e = run()
			return e
		})
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		res.Rows = append(res.Rows, []string{
			"TE max-flow", label, fdur(d), fs(a.TotalFlow/exact.TotalFlow, 3), note,
		})
		return nil
	}
	k := 8
	if err := addTE(fmt.Sprintf("POP-%d random", k), "paper default", func() (*te.Allocation, error) {
		return te.SolvePOP(inst, te.MaxTotalFlow, core.Options{K: k, Seed: 5, Parallel: true}, lp.Options{})
	}); err != nil {
		return nil, err
	}
	if err := addTE(fmt.Sprintf("POP-%d geo", k), "§3.2 future work", func() (*te.Allocation, error) {
		return te.SolvePOPGeo(inst, te.MaxTotalFlow, core.Options{K: k, Seed: 5, Parallel: true}, lp.Options{})
	}); err != nil {
		return nil, err
	}
	if err := addTE(fmt.Sprintf("POP-%d × NCFlow", k), "§3.4 composability", func() (*te.Allocation, error) {
		return te.SolvePOPWithNCFlow(inst, core.Options{K: k, Seed: 5, Parallel: true}, te.NCFlowOptions{Seed: 1})
	}); err != nil {
		return nil, err
	}

	res.Notes = append(res.Notes, "quality column: flow ratio vs exact")
	return res, nil
}
