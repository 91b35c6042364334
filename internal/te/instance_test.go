package te

import (
	"reflect"
	"runtime"
	"testing"

	"pop/internal/core"
	"pop/internal/graph"
	"pop/internal/lp"
	"pop/internal/obs"
	"pop/internal/tm"
	"pop/internal/topo"
)

// memoPaths is the sequential build NewInstance replaced, kept as its
// reference: one KShortestPaths call per distinct pair in demand order,
// memoized so demands with the same pair share one slice.
func memoPaths(t *topo.Topology, demands []tm.Demand, numPaths int) [][]*graph.Path {
	out := make([][]*graph.Path, len(demands))
	memo := map[[2]int][]*graph.Path{}
	for j, d := range demands {
		key := [2]int{d.Src, d.Dst}
		p, ok := memo[key]
		if !ok && d.Src >= 0 && d.Dst >= 0 && d.Src < t.G.N && d.Dst < t.G.N {
			p = t.G.KShortestPaths(d.Src, d.Dst, numPaths)
		}
		memo[key] = p
		out[j] = p
	}
	return out
}

// splitTiny is topo.Tiny's 2×3 grid plus two nodes reachable from nowhere
// in it: 6 → 7 is one directed edge, so 7 → 6 and grid ↔ {6, 7} are
// disconnected pairs.
func splitTiny() *topo.Topology {
	tiny := topo.Tiny()
	g := graph.New(8)
	for _, e := range tiny.G.Edges {
		g.AddEdge(e.From, e.To, e.Capacity, e.Weight)
	}
	g.AddEdge(6, 7, 10, 1)
	coords := append(tiny.Coords, [2]float64{0, 2}, [2]float64{1, 2})
	return &topo.Topology{Name: "SplitTiny", G: g, Coords: coords}
}

func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestNewInstanceParallelDeterministic: the fanned-out build equals the
// sequential memo build under any GOMAXPROCS, demands with one pair share
// one path slice, and out-of-range or disconnected pairs get nil.
func TestNewInstanceParallelDeterministic(t *testing.T) {
	split := splitTiny()
	splitDemands := []tm.Demand{
		{Src: 0, Dst: 5, Amount: 1}, {Src: 5, Dst: 0, Amount: 1}, {Src: 0, Dst: 5, Amount: 2},
		{Src: -1, Dst: 2, Amount: 1}, {Src: 2, Dst: 8, Amount: 1}, {Src: 8, Dst: 8, Amount: 1},
		{Src: 0, Dst: 6, Amount: 1}, {Src: 7, Dst: 6, Amount: 1}, {Src: 6, Dst: 7, Amount: 1},
		{Src: 3, Dst: 3, Amount: 1}, {Src: 0, Dst: 5, Amount: 3}, {Src: -1, Dst: 2, Amount: 1},
	}
	wan := topo.GenerateScaled("Kdl", 0.12)
	wanDemands := tm.Generate(tm.Config{Nodes: wan.G.N, Commodities: 300, Model: tm.Gravity, Seed: 3})
	wanDemands = append(wanDemands, wanDemands[:40]...) // every pair twice
	cases := []struct {
		tp      *topo.Topology
		demands []tm.Demand
	}{{split, splitDemands}, {wan, wanDemands}}

	for _, c := range cases {
		want := memoPaths(c.tp, c.demands, 4)
		var one, four *Instance
		withProcs(1, func() { one = NewInstance(c.tp, c.demands, 4) })
		withProcs(4, func() { four = NewInstance(c.tp, c.demands, 4) })
		if !reflect.DeepEqual(one.Paths, want) || !reflect.DeepEqual(four.Paths, want) {
			t.Fatalf("%s: NewInstance paths differ from the sequential memo build", c.tp.Name)
		}
		first := map[[2]int]int{}
		for j, d := range c.demands {
			key := [2]int{d.Src, d.Dst}
			i, seen := first[key]
			if !seen {
				first[key] = j
				continue
			}
			a, b := four.Paths[i], four.Paths[j]
			if len(a) > 0 && &a[0] != &b[0] {
				t.Fatalf("%s: demands %d and %d share pair %v but not a path slice", c.tp.Name, i, j, key)
			}
		}
	}

	inst := NewInstance(split, splitDemands, 4)
	for j, d := range splitDemands {
		disconnected := d.Src < 0 || d.Src >= 8 || d.Dst < 0 || d.Dst >= 8 ||
			(d.Src < 6) != (d.Dst < 6) || (d.Src == 7 && d.Dst == 6)
		if got := inst.Paths[j]; disconnected != (got == nil) {
			t.Fatalf("demand %d %v: paths %v, want nil = %v", j, d, got, disconnected)
		}
	}
	if n := len(inst.Paths[9]); n != 1 || len(inst.Paths[9][0].Edges) != 0 {
		t.Fatalf("self-pair: %d paths, want one empty path", n)
	}
}

// BenchmarkNewInstance times the TE set-up layer at batch-te's size: the
// four shortest paths of 1 000 gravity commodities on Kdl ×0.3.
func BenchmarkNewInstance(b *testing.B) {
	tp := topo.GenerateScaled("Kdl", 0.3)
	demands := tm.Generate(tm.Config{Nodes: tp.G.N, Commodities: 1000, Model: tm.Gravity, Seed: 1})
	var inst *Instance
	for b.Loop() {
		inst = NewInstance(tp, demands, 4)
	}
	b.ReportMetric(float64(inst.NumVariables()), "paths/op")
}

// BenchmarkSolvePOP is one POP solve at batch-te's shape: Kdl at 0.3 scale,
// 1 000 gravity commodities on 4 paths carrying 30% of the capacity, K = 4
// with client splitting at 0.25. The sub-problems solve one after another, so us/pivot is the cost
// of a pivot of a path-LP sub-problem, the number the sparse simplex
// kernels move.
func BenchmarkSolvePOP(b *testing.B) {
	tp := topo.GenerateScaled("Kdl", 0.3)
	demands := tm.Generate(tm.Config{Nodes: tp.G.N, Commodities: 1000, Model: tm.Gravity,
		TotalDemand: 0.3 * tp.TotalCapacity(), Seed: 1})
	inst := NewInstance(tp, demands, 4)
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	opts := core.Options{K: 4, Seed: 1, SplitT: 0.25}
	for b.Loop() {
		if _, err := SolvePOP(inst, MaxTotalFlow, opts, lp.Options{Obs: o}); err != nil {
			b.Fatal(err)
		}
	}
	pivots := float64(o.Counter("pop_lp_pivots_total", "").Value())
	b.ReportMetric(pivots/float64(b.N), "pivots/op")
	b.ReportMetric(float64(b.Elapsed().Microseconds())/max(pivots, 1), "us/pivot")
}
