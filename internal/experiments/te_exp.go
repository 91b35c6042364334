package experiments

import (
	"fmt"
	"time"

	"pop/internal/core"
	"pop/internal/lp"
	"pop/internal/te"
	"pop/internal/tm"
	"pop/internal/topo"
)

// Table1 regenerates Table 1: the WAN topologies used to benchmark POP for
// traffic engineering, with their (synthesized) node and edge counts.
func Table1(Scale) (*Result, error) {
	res := &Result{
		Name:   "table1",
		Title:  "WAN topologies (paper Table 1)",
		Header: []string{"topology", "nodes", "edges", "total capacity"},
		Notes: []string{
			"topologies are synthesized with Table 1's exact node/edge counts, because the Topology Zoo files are not redistributable: layouts and capacities are package topo's, not the paper's",
		},
	}
	for _, spec := range topo.Table1() {
		t := topo.Generate(spec.Name)
		res.Rows = append(res.Rows, []string{
			spec.Name,
			fmt.Sprintf("%d", t.G.N),
			fmt.Sprintf("%d", len(t.G.Edges)),
			fs(t.TotalCapacity(), 0),
		})
	}
	return res, nil
}

// teInstance builds the standard benchmark instance for the Kdl figures.
// Quality under POP-k depends on commodities *per sub-problem* (granularity
// condition 2), so commodity counts are chosen to keep k=16 meaningful at
// every scale; the paper's 5·10⁵-demand instances are far denser still.
func teInstance(scale Scale, model tm.Model, seed int64) *te.Instance {
	factor := pick(scale, 0.12, 0.3, 1.0)
	commodities := pick(scale, 1200, 3000, 20000)
	tp := topo.GenerateScaled("Kdl", factor)
	ds := tm.Generate(tm.Config{
		Nodes: tp.G.N, Commodities: commodities, Model: model,
		TotalDemand: tp.TotalCapacity() * 0.3, Seed: seed,
	})
	return te.NewInstance(tp, ds, 4)
}

// popKs returns the POP fan-outs used in Figures 9 and 12, capped so each
// sub-problem keeps at least ~30 commodities (below that, sub-problems are
// no longer granular and quality says nothing about the method).
func popKs(numDemands int) []int {
	out := []int{}
	for _, k := range []int{4, 16, 64} {
		if numDemands/k >= 30 {
			out = append(out, k)
		}
	}
	return out
}

// Fig9 regenerates Figure 9: max total flow on the Kdl topology — runtime
// and total allocated flow for the exact LP, POP-4/16/64, CSPF, and the
// simplified NCFlow.
func Fig9(scale Scale) (*Result, error) {
	inst := teInstance(scale, tm.Gravity, 7)
	res := &Result{
		Name:   "fig9",
		Title:  "TE max total flow on Kdl (paper Fig. 9)",
		Header: []string{"method", "runtime", "total flow", "flow vs exact", "LP vars"},
		Notes: []string{
			fmt.Sprintf("Kdl scaled to %d nodes / %d edges, %d commodities (paper: 754/1790, >5·10⁵ demands)",
				inst.Topo.G.N, len(inst.Topo.G.Edges), len(inst.Demands)),
		},
	}

	var exactFlow float64
	addRow := func(label string, d time.Duration, flow float64, vars int) {
		rel := 0.0
		if exactFlow > 0 {
			rel = flow / exactFlow
		}
		res.Rows = append(res.Rows, []string{label, fdur(d), fs(flow, 1), fs(rel, 3), fmt.Sprintf("%d", vars)})
	}

	var exact *te.Allocation
	d, err := timed(func() error {
		var e error
		exact, e = te.SolveLP(inst, te.MaxTotalFlow, lp.Options{})
		return e
	})
	if err != nil {
		return nil, err
	}
	exactFlow = exact.TotalFlow
	addRow("Exact sol.", d, exact.TotalFlow, exact.LPVariables)

	for _, k := range popKs(len(inst.Demands)) {
		var a *te.Allocation
		d, err := timed(func() error {
			var e error
			a, e = te.SolvePOP(inst, te.MaxTotalFlow, core.Options{K: k, Seed: 3, Parallel: true}, lp.Options{})
			return e
		})
		if err != nil {
			return nil, err
		}
		addRow(fmt.Sprintf("POP-%d", k), d, a.TotalFlow, a.LPVariables)
	}

	var cspf *te.Allocation
	d, err = timed(func() error {
		cspf = te.SolveCSPF(inst)
		return nil
	})
	if err != nil {
		return nil, err
	}
	addRow("CSPF", d, cspf.TotalFlow, 0)

	var nc *te.Allocation
	d, err = timed(func() error {
		var e error
		nc, e = te.SolveNCFlow(inst, te.NCFlowOptions{Seed: 1})
		return e
	})
	if err != nil {
		return nil, err
	}
	addRow("NCFlow", d, nc.TotalFlow, nc.LPVariables)
	return res, nil
}

// Fig10 regenerates Figure 10: POP-16 speedup and flow ratio relative to
// the exact LP across multiple topologies and traffic models (the paper's
// 275-experiment scatter, at reduced scale).
func Fig10(scale Scale) (*Result, error) {
	factor := pick(scale, 0.18, 0.35, 1.0)
	commodities := pick(scale, 800, 1500, 5000)
	names := pick(scale,
		[]string{"Cogentco", "Deltacom"},
		[]string{"Kdl", "Cogentco", "UsCarrier", "Deltacom"},
		[]string{"Kdl", "Cogentco", "UsCarrier", "Colt", "GtsCe", "TataNld", "DialtelecomCz", "Deltacom"})
	models := []tm.Model{tm.Gravity, tm.Uniform}
	if scale >= Medium {
		models = tm.Models()
	}

	res := &Result{
		Name:   "fig10",
		Title:  "POP-16 vs exact across topologies and traffic models (paper Fig. 10)",
		Header: []string{"topology", "model", "speedup", "flow ratio"},
		Notes: []string{
			fmt.Sprintf("topologies scaled by %.2f, %d commodities each; Poisson runs use client splitting t=0.75 as in the paper", factor, commodities),
		},
	}
	for _, name := range names {
		tp := topo.GenerateScaled(name, factor)
		for _, model := range models {
			ds := tm.Generate(tm.Config{
				Nodes: tp.G.N, Commodities: commodities, Model: model,
				TotalDemand: tp.TotalCapacity() * 0.3, Seed: 19,
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
			splitT := 0.0
			if model == tm.Poisson {
				splitT = 0.75
			}
			var popA *te.Allocation
			dPop, err := timed(func() error {
				var e error
				popA, e = te.SolvePOP(inst, te.MaxTotalFlow,
					core.Options{K: 16, Seed: 5, Parallel: true, SplitT: splitT}, lp.Options{})
				return e
			})
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, []string{
				name, model.String(),
				fs(dExact.Seconds()/dPop.Seconds(), 1) + "x",
				fs(popA.TotalFlow/exact.TotalFlow, 3),
			})
		}
	}
	return res, nil
}

// Fig11 regenerates Figure 11: a multi-day traffic trace on a private-WAN
// stand-in — allocated flow and speedup relative to the exact LP for
// NCFlow, POP without client splitting, and POP with t=0.25 client
// splitting.
func Fig11(scale Scale) (*Result, error) {
	factor := pick(scale, 0.25, 0.5, 1.0)
	steps := pick(scale, 8, 30, 120)
	commodities := pick(scale, 600, 1200, 3000)
	tp := topo.GenerateScaled("Cogentco", factor)
	trace := tm.Diurnal(tm.Config{
		Nodes: tp.G.N, Commodities: commodities, Model: tm.Poisson,
		TotalDemand: tp.TotalCapacity() * 0.3, Seed: 23,
	}, steps, pick(scale, 5, 12, 24))

	res := &Result{
		Name:   "fig11",
		Title:  "Multi-day WAN trace: flow and speedup vs exact (paper Fig. 11)",
		Header: []string{"method", "median flow ratio", "p10 flow ratio", "median speedup"},
		Notes: []string{
			fmt.Sprintf("synthetic diurnal Poisson trace (%d steps) on Cogentco×%.2f substitutes the paper's private WAN trace", steps, factor),
		},
	}

	type method struct {
		label string
		run   func(*te.Instance) (*te.Allocation, error)
	}
	k := 16
	methods := []method{
		{"NCFlow", func(inst *te.Instance) (*te.Allocation, error) {
			return te.SolveNCFlow(inst, te.NCFlowOptions{Seed: 2})
		}},
		{"POP, +0x", func(inst *te.Instance) (*te.Allocation, error) {
			return te.SolvePOP(inst, te.MaxTotalFlow, core.Options{K: k, Seed: 7, Parallel: true}, lp.Options{})
		}},
		{"POP, +0.25x", func(inst *te.Instance) (*te.Allocation, error) {
			return te.SolvePOP(inst, te.MaxTotalFlow, core.Options{K: k, Seed: 7, Parallel: true, SplitT: 0.25}, lp.Options{})
		}},
	}

	ratios := make([][]float64, len(methods))
	speedups := make([][]float64, len(methods))
	for _, demands := range trace {
		inst := te.NewInstance(tp, demands, 4)
		var exact *te.Allocation
		dExact, err := timed(func() error {
			var e error
			exact, e = te.SolveLP(inst, te.MaxTotalFlow, lp.Options{})
			return e
		})
		if err != nil {
			return nil, err
		}
		for mi, m := range methods {
			var a *te.Allocation
			d, err := timed(func() error {
				var e error
				a, e = m.run(inst)
				return e
			})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", m.label, err)
			}
			ratios[mi] = append(ratios[mi], a.TotalFlow/exact.TotalFlow)
			speedups[mi] = append(speedups[mi], dExact.Seconds()/d.Seconds())
		}
	}
	for mi, m := range methods {
		res.Rows = append(res.Rows, []string{
			m.label,
			fs(quantile(ratios[mi], 0.5), 3),
			fs(quantile(ratios[mi], 0.1), 3),
			fs(quantile(speedups[mi], 0.5), 1) + "x",
		})
	}
	return res, nil
}

// Fig12 regenerates Figure 12: max concurrent flow on Kdl — runtime and the
// minimum fractional flow for the exact LP and POP variants. The exact
// concurrent-flow LP is far harder than max-flow (the epigraph variable
// couples every commodity), which is exactly why the paper reports its
// largest speedups (1000×) here; the instance is kept smaller than Fig9's
// so the exact solve stays tractable.
func Fig12(scale Scale) (*Result, error) {
	factor := pick(scale, 0.12, 0.3, 1.0)
	commodities := pick(scale, 700, 2000, 10000)
	tp := topo.GenerateScaled("Kdl", factor)
	ds := tm.Generate(tm.Config{
		Nodes: tp.G.N, Commodities: commodities, Model: tm.Gravity,
		TotalDemand: tp.TotalCapacity() * 0.3, Seed: 11,
	})
	inst := te.NewInstance(tp, ds, 4)
	res := &Result{
		Name:   "fig12",
		Title:  "TE max concurrent flow on Kdl (paper Fig. 12)",
		Header: []string{"method", "runtime", "min fractional flow", "vs exact"},
		Notes: []string{
			fmt.Sprintf("Kdl scaled to %d nodes, %d commodities", inst.Topo.G.N, len(inst.Demands)),
		},
	}
	var exactFrac float64
	addRow := func(label string, d time.Duration, frac float64) {
		rel := 0.0
		if exactFrac > 0 {
			rel = frac / exactFrac
		}
		res.Rows = append(res.Rows, []string{label, fdur(d), fs(frac, 4), fs(rel, 3)})
	}

	var exact *te.Allocation
	d, err := timed(func() error {
		var e error
		exact, e = te.SolveLP(inst, te.MaxConcurrentFlow, lp.Options{})
		return e
	})
	if err != nil {
		return nil, err
	}
	exactFrac = exact.MinFraction
	addRow("Exact sol.", d, exact.MinFraction)

	for _, k := range popKs(len(inst.Demands)) {
		var a *te.Allocation
		d, err := timed(func() error {
			var e error
			a, e = te.SolvePOP(inst, te.MaxConcurrentFlow, core.Options{K: k, Seed: 13, Parallel: true}, lp.Options{})
			return e
		})
		if err != nil {
			return nil, err
		}
		addRow(fmt.Sprintf("POP-%d", k), d, a.MinFraction)
	}
	return res, nil
}

// Fig14 regenerates Figure 14: the effect of client splitting (t = 0, 0.5,
// 1) on total-flow ratio and speedup under Gravity vs Poisson traffic,
// summarized as quartiles over several instances (the paper plots full
// CDFs over ~100 runs).
func Fig14(scale Scale) (*Result, error) {
	factor := pick(scale, 0.3, 0.5, 1.0)
	commodities := pick(scale, 700, 1200, 2500)
	seeds := pick(scale, []int64{1, 2, 3}, []int64{1, 2, 3, 4, 5, 6, 7, 8}, func() []int64 {
		var s []int64
		for i := int64(1); i <= 25; i++ {
			s = append(s, i)
		}
		return s
	}())

	tp := topo.GenerateScaled("Deltacom", factor)
	res := &Result{
		Name:   "fig14",
		Title:  "Client splitting: flow ratio and speedup CDF summaries (paper Fig. 14)",
		Header: []string{"model", "extra clients", "p25 ratio", "median ratio", "p75 ratio", "median speedup"},
		Notes: []string{
			fmt.Sprintf("POP-16 on Deltacom×%.2f, %d commodities, %d seeds per cell", factor, commodities, len(seeds)),
		},
	}
	for _, model := range []tm.Model{tm.Gravity, tm.Poisson} {
		for _, t := range []float64{0, 0.5, 1} {
			var ratios, speeds []float64
			for _, seed := range seeds {
				ds := tm.Generate(tm.Config{
					Nodes: tp.G.N, Commodities: commodities, Model: model,
					TotalDemand: tp.TotalCapacity() * 0.3, Seed: seed,
				})
				inst := te.NewInstance(tp, ds, 4)
				var exact *te.Allocation
				dE, err := timed(func() error {
					var e error
					exact, e = te.SolveLP(inst, te.MaxTotalFlow, lp.Options{})
					return e
				})
				if err != nil {
					return nil, err
				}
				var a *te.Allocation
				dP, err := timed(func() error {
					var e error
					a, e = te.SolvePOP(inst, te.MaxTotalFlow,
						core.Options{K: 16, Seed: seed, Parallel: true, SplitT: t}, lp.Options{})
					return e
				})
				if err != nil {
					return nil, err
				}
				ratios = append(ratios, a.TotalFlow/exact.TotalFlow)
				speeds = append(speeds, dE.Seconds()/dP.Seconds())
			}
			res.Rows = append(res.Rows, []string{
				model.String(), fmt.Sprintf("+%gx", t),
				fs(quantile(ratios, 0.25), 3),
				fs(quantile(ratios, 0.5), 3),
				fs(quantile(ratios, 0.75), 3),
				fs(quantile(speeds, 0.5), 1) + "x",
			})
		}
	}
	return res, nil
}

// Fig15 regenerates Figure 15: resource splitting versus sharding the
// topology, as the number of sub-problems grows (Cogentco, Gravity).
func Fig15(scale Scale) (*Result, error) {
	factor := pick(scale, 0.3, 0.6, 1.0)
	commodities := pick(scale, 800, 1500, 3000)
	tp := topo.GenerateScaled("Cogentco", factor)
	ds := tm.Generate(tm.Config{
		Nodes: tp.G.N, Commodities: commodities, Model: tm.Gravity,
		TotalDemand: tp.TotalCapacity() * 0.3, Seed: 31,
	})
	inst := te.NewInstance(tp, ds, 4)

	res := &Result{
		Name:   "fig15",
		Title:  "Resource splitting vs topology sharding (paper Fig. 15)",
		Header: []string{"k", "flow (resource splitting)", "flow (no resource splitting)"},
		Notes: []string{
			fmt.Sprintf("Cogentco×%.2f, Gravity, %d commodities", factor, commodities),
		},
	}
	ks := pick(scale, []int{2, 4, 8, 16}, []int{2, 4, 8, 16, 32}, []int{2, 4, 8, 16, 32})
	for _, k := range ks {
		split, err := te.SolvePOP(inst, te.MaxTotalFlow, core.Options{K: k, Seed: 3, Parallel: true}, lp.Options{})
		if err != nil {
			return nil, err
		}
		shard, err := te.SolveSharded(inst, te.MaxTotalFlow, core.Options{K: k, Seed: 3, Parallel: true}, lp.Options{})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", k), fs(split.TotalFlow, 1), fs(shard.TotalFlow, 1),
		})
	}
	return res, nil
}

// Fig16 regenerates Figure 16: partitioning strategies — random versus
// power-of-two versus deliberately skewed — on the max-flow objective.
func Fig16(scale Scale) (*Result, error) {
	factor := pick(scale, 0.3, 0.6, 1.0)
	commodities := pick(scale, 800, 1500, 3000)
	tp := topo.GenerateScaled("Cogentco", factor)
	ds := tm.Generate(tm.Config{
		Nodes: tp.G.N, Commodities: commodities, Model: tm.Gravity,
		TotalDemand: tp.TotalCapacity() * 0.3, Seed: 37,
	})
	inst := te.NewInstance(tp, ds, 4)

	res := &Result{
		Name:   "fig16",
		Title:  "Partitioning strategies on max-flow (paper Fig. 16)",
		Header: []string{"k", "random", "power-of-2", "skewed"},
		Notes: []string{
			fmt.Sprintf("Cogentco×%.2f, Gravity, %d commodities; skewed groups commodities by demand size", factor, commodities),
		},
	}
	for _, k := range []int{1, 4, 8, 16} {
		row := []string{fmt.Sprintf("%d", k)}
		for _, strat := range []core.Strategy{core.Random, core.PowerOfTwo, core.Skewed} {
			a, err := te.SolvePOP(inst, te.MaxTotalFlow,
				core.Options{K: k, Seed: 41, Strategy: strat, Parallel: true}, lp.Options{})
			if err != nil {
				return nil, err
			}
			row = append(row, fs(a.TotalFlow, 1))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
