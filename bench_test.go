// Benchmarks regenerating every table and figure of the POP paper's
// evaluation (at Small scale — see cmd/popbench for bigger runs), plus
// ablation benches that each isolate one design choice: the map step's
// parallelism, the fan-out k, LP pricing, partitioning and client-splitting
// cost, the TE path budget, POP composition and MPS serialization.
package pop_test

import (
	"bytes"
	"fmt"
	"testing"

	"pop/internal/core"
	"pop/internal/experiments"
	"pop/internal/lp"
	"pop/internal/te"
	"pop/internal/tm"
	"pop/internal/topo"
)

func benchExperiment(b *testing.B, name string) {
	e, ok := experiments.Get(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(experiments.Small); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per paper table/figure ---

func BenchmarkTable1Topologies(b *testing.B)        { benchExperiment(b, "table1") }
func BenchmarkFig2MaxMinSpaceSharing(b *testing.B)  { benchExperiment(b, "fig2") }
func BenchmarkFig6JCT(b *testing.B)                 { benchExperiment(b, "fig6") }
func BenchmarkFig7PropFairness(b *testing.B)        { benchExperiment(b, "fig7") }
func BenchmarkFig8Makespan(b *testing.B)            { benchExperiment(b, "fig8") }
func BenchmarkFig9MaxFlowKdl(b *testing.B)          { benchExperiment(b, "fig9") }
func BenchmarkFig10Sweep(b *testing.B)              { benchExperiment(b, "fig10") }
func BenchmarkFig11Trace(b *testing.B)              { benchExperiment(b, "fig11") }
func BenchmarkFig12ConcurrentFlow(b *testing.B)     { benchExperiment(b, "fig12") }
func BenchmarkFig13LoadBalancing(b *testing.B)      { benchExperiment(b, "fig13") }
func BenchmarkFig14ClientSplitting(b *testing.B)    { benchExperiment(b, "fig14") }
func BenchmarkFig15ResourceSplitting(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16Partitioners(b *testing.B)       { benchExperiment(b, "fig16") }
func BenchmarkSection51ChernoffBounds(b *testing.B) { benchExperiment(b, "sec51") }
func BenchmarkExtensions(b *testing.B)              { benchExperiment(b, "ext") }
func BenchmarkScalingGranularity(b *testing.B)      { benchExperiment(b, "scaling") }

// --- ablation benches ---

func teBenchInstance() *te.Instance {
	tp := topo.GenerateScaled("Deltacom", 0.3)
	ds := tm.Generate(tm.Config{
		Nodes: tp.G.N, Commodities: 600, Model: tm.Gravity,
		TotalDemand: tp.TotalCapacity() * 0.3, Seed: 5,
	})
	return te.NewInstance(tp, ds, 4)
}

// BenchmarkPOPParallelism isolates the map step's serial/parallel choice.
func BenchmarkPOPParallelism(b *testing.B) {
	inst := teBenchInstance()
	for _, parallel := range []bool{false, true} {
		b.Run(fmt.Sprintf("parallel=%v", parallel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := te.SolvePOP(inst, te.MaxTotalFlow,
					core.Options{K: 8, Seed: 1, Parallel: parallel}, lp.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPOPFanout sweeps k: the quality/runtime knob of POP.
func BenchmarkPOPFanout(b *testing.B) {
	inst := teBenchInstance()
	for _, k := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var flow float64
			for i := 0; i < b.N; i++ {
				a, err := te.SolvePOP(inst, te.MaxTotalFlow,
					core.Options{K: k, Seed: 1, Parallel: true}, lp.Options{})
				if err != nil {
					b.Fatal(err)
				}
				flow = a.TotalFlow
			}
			b.ReportMetric(flow, "flow")
		})
	}
}

// BenchmarkLPPricing times a cold solve, Dantzig-priced, of one model.
func BenchmarkLPPricing(b *testing.B) {
	build := func() *lp.Problem {
		// A mid-size structured LP comparable to a TE sub-problem.
		p := lp.NewProblem(lp.Maximize)
		nv, mc := 400, 150
		for j := 0; j < nv; j++ {
			p.AddVariable(float64((j*37)%17), 0, 3, "")
		}
		for i := 0; i < mc; i++ {
			var idx []int
			var val []float64
			for j := i % 7; j < nv; j += 7 {
				idx = append(idx, j)
				val = append(val, float64(1+(i+j)%5))
			}
			p.AddConstraint(idx, val, lp.LE, float64(50+(i*13)%200), "")
		}
		return p
	}
	for i := 0; i < b.N; i++ {
		p := build()
		sol, err := p.Solve()
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("err=%v status=%v", err, sol.Status)
		}
	}
}

// BenchmarkPartitioners isolates partitioning cost (it must stay negligible
// next to sub-problem solves).
func BenchmarkPartitioners(b *testing.B) {
	load := func(i int) float64 { return float64(i%97) + 1 }
	for _, strat := range []core.Strategy{core.Random, core.PowerOfTwo, core.Skewed} {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Partition(100000, 16, strat, int64(i), load)
			}
		})
	}
}

// BenchmarkClientSplitting measures Algorithm 2's heap cost.
func BenchmarkClientSplitting(b *testing.B) {
	type c struct{ load float64 }
	clients := make([]c, 50000)
	for i := range clients {
		clients[i] = c{load: float64(i%1000) + 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SplitClients(clients, 0.75,
			func(x c) float64 { return x.load },
			func(x c) (c, c) { h := x.load / 2; return c{h}, c{h} })
	}
}

// BenchmarkPathCount sweeps the precomputed path budget (the TE
// formulation's main modelling knob): more paths per commodity means more
// LP columns but higher achievable flow.
func BenchmarkPathCount(b *testing.B) {
	tp := topo.GenerateScaled("Deltacom", 0.3)
	ds := tm.Generate(tm.Config{
		Nodes: tp.G.N, Commodities: 400, Model: tm.Gravity,
		TotalDemand: tp.TotalCapacity() * 0.3, Seed: 5,
	})
	for _, paths := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("paths=%d", paths), func(b *testing.B) {
			inst := te.NewInstance(tp, ds, paths)
			var flow float64
			for i := 0; i < b.N; i++ {
				a, err := te.SolveLP(inst, te.MaxTotalFlow, lp.Options{})
				if err != nil {
					b.Fatal(err)
				}
				flow = a.TotalFlow
			}
			b.ReportMetric(flow, "flow")
		})
	}
}

// BenchmarkPOPComposition compares plain POP against POP with NCFlow
// sub-solvers (§3.4 composability) and the geographic partitioner.
func BenchmarkPOPComposition(b *testing.B) {
	inst := teBenchInstance()
	b.Run("pop-random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := te.SolvePOP(inst, te.MaxTotalFlow,
				core.Options{K: 8, Seed: 1, Parallel: true}, lp.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pop-geo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := te.SolvePOPGeo(inst, te.MaxTotalFlow, core.Options{K: 8, Seed: 1, Parallel: true}, lp.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pop-ncflow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := te.SolvePOPWithNCFlow(inst,
				core.Options{K: 8, Seed: 1, Parallel: true}, te.NCFlowOptions{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMPSRoundTrip measures serialization overhead for a mid-size LP.
func BenchmarkMPSRoundTrip(b *testing.B) {
	p := lp.NewProblem(lp.Maximize)
	for j := 0; j < 500; j++ {
		p.AddVariable(float64(j%13), 0, 5, "")
	}
	for i := 0; i < 200; i++ {
		var idx []int
		var val []float64
		for j := i % 5; j < 500; j += 5 {
			idx = append(idx, j)
			val = append(val, 1+float64((i+j)%3))
		}
		p.AddConstraint(idx, val, lp.LE, 100, "")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := p.WriteMPS(&buf, "B", nil); err != nil {
			b.Fatal(err)
		}
		if _, _, err := lp.ReadMPS(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
