package te

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"pop/internal/core"
	"pop/internal/lp"
	"pop/internal/obs"
	"pop/internal/tm"
	"pop/internal/topo"
)

// mapBuildLP is the map-based path-LP build, kept as the oracle of
// buildColumns: a variable map keyed by (demand, path) and per-edge row and
// coefficient maps, emitted row by row in edge-ID order.
func mapBuildLP(inst *Instance, obj Objective, capScale float64) (*lp.Problem, func(j, p int) int) {
	p := lp.NewProblem(lp.Maximize)

	type varRef struct{ j, p int }
	varOf := map[varRef]int{}
	edgeRows := make(map[int][]int)      // edge id -> var indices
	edgeCoefs := make(map[int][]float64) // parallel coefficients

	objCoef := 0.0
	if obj == MaxTotalFlow {
		objCoef = 1
	}
	for j := range inst.Demands {
		for pi, path := range inst.Paths[j] {
			v := p.AddVariable(objCoef, 0, inst.Demands[j].Amount, "")
			varOf[varRef{j, pi}] = v
			for _, eid := range path.Edges {
				edgeRows[eid] = append(edgeRows[eid], v)
				edgeCoefs[eid] = append(edgeCoefs[eid], 1)
			}
		}
	}
	if p.NumVariables() == 0 {
		return nil, nil
	}

	var tVar = -1
	if obj == MaxConcurrentFlow {
		tVar = p.AddVariable(1, 0, 1, "")
	}

	for j := range inst.Demands {
		if len(inst.Paths[j]) == 0 {
			continue
		}
		idx := make([]int, 0, len(inst.Paths[j])+1)
		coef := make([]float64, 0, len(inst.Paths[j])+1)
		for pi := range inst.Paths[j] {
			idx = append(idx, varOf[varRef{j, pi}])
			coef = append(coef, 1)
		}
		p.AddConstraint(idx, coef, lp.LE, inst.Demands[j].Amount, "")
		if obj == MaxConcurrentFlow && inst.Demands[j].Amount > 0 {
			idx2 := append(append([]int(nil), idx...), tVar)
			coef2 := append(append([]float64(nil), coef...), -inst.Demands[j].Amount)
			p.AddConstraint(idx2, coef2, lp.GE, 0, "")
		}
	}

	for eid := range inst.Topo.G.Edges {
		vars, used := edgeRows[eid]
		if !used {
			continue
		}
		cap := inst.Topo.G.Edges[eid].Capacity / capScale
		p.AddConstraint(vars, edgeCoefs[eid], lp.LE, cap, "")
	}
	return p, func(j, pi int) int { return varOf[varRef{j, pi}] }
}

// rowsOf transposes a column form back into a row build: each row's
// entries in column order.
func rowsOf(c *lp.Columns) *lp.Problem {
	idx := make([][]int, len(c.RHS))
	val := make([][]float64, len(c.RHS))
	p := lp.NewProblem(c.Objective)
	for j := range c.Cost {
		p.AddVariable(c.Cost[j], c.Lower[j], c.Upper[j], "")
		for t := c.ColPtr[j]; t < c.ColPtr[j+1]; t++ {
			i := c.RowInd[t]
			idx[i], val[i] = append(idx[i], j), append(val[i], c.Values[t])
		}
	}
	for i := range c.RHS {
		p.AddConstraint(idx[i], val[i], c.Sense[i], c.RHS[i], "")
	}
	return p
}

// checkBuild holds buildColumns to the map-based oracle: its columns' rows
// ascend; its column form, transposed, is the oracle's row build entry for
// entry (the same MPS bytes, the same builder state down to each row's
// in-row order); and first[j]+p is the oracle's variable for demand j's
// path p.
func checkBuild(inst *Instance, obj Objective, capScale float64) error {
	cols, first := buildColumns(inst, obj, capScale)
	want, varOf := mapBuildLP(inst, obj, capScale)
	if (cols == nil) != (want == nil) {
		return fmt.Errorf("model is nil: %v, oracle's is nil: %v", cols == nil, want == nil)
	}
	if cols == nil {
		return nil
	}
	for j := range cols.Cost {
		for t := cols.ColPtr[j] + 1; t < cols.ColPtr[j+1]; t++ {
			if cols.RowInd[t] <= cols.RowInd[t-1] {
				return fmt.Errorf("column %d: row %d after row %d", j, cols.RowInd[t], cols.RowInd[t-1])
			}
		}
	}
	got := rowsOf(cols)
	var gb, wb bytes.Buffer
	if err := got.WriteMPS(&gb, "te", nil); err != nil {
		return err
	}
	if err := want.WriteMPS(&wb, "te", nil); err != nil {
		return err
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		return fmt.Errorf("MPS differs from the oracle's:\n%s\n--- oracle ---\n%s", gb.Bytes(), wb.Bytes())
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("same MPS, but the builder state (row order within a row) differs from the oracle's")
	}
	for j, ps := range inst.Paths {
		for pi := range ps {
			if v, w := first[j]+pi, varOf(j, pi); v != w {
				return fmt.Errorf("demand %d path %d: variable %d, oracle %d", j, pi, v, w)
			}
		}
	}
	return nil
}

// checkBuildPOP checks the exact build and every POP sub-instance's build
// (capacities at 1/k, virtual commodities when splitT > 0) under both
// objectives.
func checkBuildPOP(inst *Instance, k int, seed int64, splitT float64) error {
	for _, obj := range []Objective{MaxTotalFlow, MaxConcurrentFlow} {
		if err := checkBuild(inst, obj, 1); err != nil {
			return fmt.Errorf("%v exact: %w", obj, err)
		}
		_, err := solvePOP(inst, core.Options{K: k, Seed: seed, SplitT: splitT}, nil, true, func(sub *Instance, k int) (*Allocation, error) {
			if err := checkBuild(sub, obj, float64(k)); err != nil {
				return nil, fmt.Errorf("%v POP sub-instance (k=%d, %d commodities): %w", obj, k, len(sub.Demands), err)
			}
			return newAllocation(sub), nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// withUnroutable appends two demands NewInstance gives no paths (endpoints
// outside the topology), a self-loop, whose one path crosses no edge, and a
// routable demand of zero size.
func withUnroutable(tp *topo.Topology, ds []tm.Demand) []tm.Demand {
	return append(ds,
		tm.Demand{Src: -1, Dst: 0, Amount: 2},
		tm.Demand{Src: 0, Dst: tp.G.N, Amount: 1},
		tm.Demand{Src: 1, Dst: 1, Amount: 0.5},
		tm.Demand{Src: 0, Dst: 1, Amount: 0})
}

// TestBuildMatchesMapOracle: the column build is the map-based row build,
// entry for entry, for the exact LP and for POP sub-problems, with
// unroutable and zero demands mixed in and with client splitting's virtual
// commodities.
func TestBuildMatchesMapOracle(t *testing.T) {
	for _, c := range []struct {
		name   string
		inst   *Instance
		k      int
		splitT float64
	}{
		{"tiny/uniform", tinyInstance(t, 12, tm.Uniform), 2, 0},
		{"wan/gravity", smallWAN(t, 60, tm.Gravity, 3), 4, 0},
		{"wan/poisson/split", smallWAN(t, 60, tm.Poisson, 5), 4, 0.5},
		{"kdl/gravity/split", kdlInstance(0.12, 120), 3, 0.25},
	} {
		tp := c.inst.Topo
		withBad := NewInstance(tp, withUnroutable(tp, c.inst.Demands), c.inst.NumPaths)
		for _, inst := range []*Instance{c.inst, withBad} {
			if err := checkBuildPOP(inst, c.k, 7, c.splitT); err != nil {
				t.Fatalf("%s (%d demands): %v", c.name, len(inst.Demands), err)
			}
		}
	}
	// No routable demand at all: both builds decline to build a model.
	tp := topo.Tiny()
	none := NewInstance(tp, withUnroutable(tp, nil)[:2], 2)
	if err := checkBuildPOP(none, 2, 1, 0); err != nil {
		t.Fatal(err)
	}
}

// FuzzTEBuild draws small instances — topology, commodity count and model,
// unroutable demands, k, client splitting — from the input and holds the
// column build to the oracle on each.
func FuzzTEBuild(f *testing.F) {
	f.Add([]byte{0, 12, 0, 2, 0, 0})
	f.Add([]byte{1, 40, 1, 4, 1, 0})
	f.Add([]byte{1, 30, 2, 3, 0, 128})
	f.Add([]byte{0, 1, 2, 1, 1, 255})
	f.Add([]byte{2, 25, 1, 5, 1, 64})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		var tp *topo.Topology
		switch at(0) % 3 {
		case 0:
			tp = topo.Tiny()
		case 1:
			tp = topo.GenerateScaled("Deltacom", 0.2)
		default:
			tp = topo.GenerateScaled("Kdl", 0.05)
		}
		ds := tm.Generate(tm.Config{
			Nodes: tp.G.N, Commodities: 1 + at(1)%48, Model: tm.Model(at(2) % 3),
			TotalDemand: 0.4 * tp.TotalCapacity(), Seed: int64(at(3)),
		})
		if at(4)%2 == 1 {
			ds = withUnroutable(tp, ds)
		}
		inst := NewInstance(tp, ds, 1+at(3)%4)
		if err := checkBuildPOP(inst, 1+at(3)%5, int64(at(5)), float64(at(5))/256); err != nil {
			t.Fatalf("%s, %d demands: %v", tp.Name, len(ds), err)
		}
	})
}

// kdlInstance is batch-te's network at a scale: the Kdl topology scaled by
// scale, commodities gravity pairs (seed 1) rescaled to 30% of total
// capacity.
func kdlInstance(scale float64, commodities int) *Instance {
	tp := topo.GenerateScaled("Kdl", scale)
	ds := tm.Generate(tm.Config{Nodes: tp.G.N, Commodities: commodities, Model: tm.Gravity, Seed: 1})
	tm.Rescale(ds, 0.3*tp.TotalCapacity())
	return NewInstance(tp, ds, 4)
}

// TestSolveLPPivotBudget is a pivot budget a pricing regression cannot pass
// silently: cold solves of path LPs, each held to 1.25× its recorded pivot
// count and to its recorded total flow. Every path enters a path LP with
// the same reduced cost, so the entering rule's tie-break — toward the
// sparsest column, the shortest path — decides most pivots; lowest-index
// ties took 268, 407 and 269 pivots here.
func TestSolveLPPivotBudget(t *testing.T) {
	for _, c := range []struct {
		name   string
		scale  float64
		n      int
		k      int // 0: the exact LP
		pivots int64
		flow   float64
	}{
		{"kdl-0.12x300", 0.12, 300, 0, 141, 800.594981684},
		{"kdl-0.30x250", 0.30, 250, 0, 119, 986.937713608},
		{"kdl-0.12x300/pop-4", 0.12, 300, 4, 168, 512.672031635},
	} {
		inst := kdlInstance(c.scale, c.n)
		reg := obs.NewRegistry()
		opts := lp.Options{Obs: &obs.Observer{Metrics: reg}}
		var a *Allocation
		var err error
		if c.k == 0 {
			a, err = SolveLP(inst, MaxTotalFlow, opts)
		} else {
			a, err = SolvePOP(inst, MaxTotalFlow, core.Options{K: c.k, Seed: 1}, opts)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		pivots := reg.Counter("pop_lp_pivots_total", "").Value()
		t.Logf("%s: %d pivots, total flow %.12g", c.name, pivots, a.TotalFlow)
		if budget := c.pivots * 5 / 4; pivots > budget {
			t.Errorf("%s: %d pivots, budget %d (1.25× %d)", c.name, pivots, budget, c.pivots)
		}
		if math.Abs(a.TotalFlow-c.flow) > 1e-9*c.flow {
			t.Errorf("%s: total flow %.12g, recorded %.12g", c.name, a.TotalFlow, c.flow)
		}
	}
}

// TestSolvePOPTracesColumnBuild: a traced POP solve takes each
// sub-problem's column form through lp's standardize span and books each
// solve in the pop_lp_* counters, one of each per sub-problem.
func TestSolvePOPTracesColumnBuild(t *testing.T) {
	tr, reg := obs.NewTrace(), obs.NewRegistry()
	opts := lp.Options{Obs: &obs.Observer{Trace: tr, Metrics: reg}}
	if _, err := SolvePOP(kdlInstance(0.12, 300), MaxTotalFlow, core.Options{K: 4, Seed: 1}, opts); err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, e := range tr.Events() {
		if e.Phase == "X" && e.Name == "lp.standardize" {
			spans++
		}
	}
	if solves := reg.Counter("pop_lp_solves_total", "").Value(); spans != 4 || solves != 4 {
		t.Fatalf("%d lp.standardize spans and %d booked solves, want 4 of each", spans, solves)
	}
}
